//! A4 (ablation, §3.2): the vfree hash table.
//!
//! The paper: *"To speed up the default vfree function we have added a hash
//! table to store the information about virtual memory buffers."* Vanilla
//! Linux 2.6 located a vmalloc allocation by walking the `vmlist` linearly;
//! the cost of each `vfree` therefore grew with the number of live
//! allocations. This ablation frees from pools of increasing size under
//! both index structures and reports the lookup cycles per `vfree`.

use std::sync::Arc;

use bench::{banner, Report};
use kucode::prelude::*;

fn lookup_cycles_per_free(index: VfreeIndex, live: usize) -> f64 {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let vm = Vmalloc::new(machine, index);
    let mut addrs = Vec::with_capacity(live);
    for _ in 0..live {
        addrs.push(vm.vmalloc(64).unwrap());
    }
    // Free newest-first: the worst case for a list ordered oldest-first.
    let before = vm.vfree_lookup_cycles();
    for &a in addrs.iter().rev() {
        vm.vfree(a).unwrap();
    }
    (vm.vfree_lookup_cycles() - before) as f64 / live as f64
}

pub fn run(report: &mut Report) {
    banner("A4", "vfree: linear vmlist walk vs hash table");
    println!(
        "{:>12} {:>20} {:>20} {:>10}",
        "live allocs", "linear (cyc/vfree)", "hash (cyc/vfree)", "speedup"
    );
    let mut worst_ratio = 0.0f64;
    for &live in &[64usize, 256, 1_024, 4_096] {
        let linear = lookup_cycles_per_free(VfreeIndex::LinearList, live);
        let hash = lookup_cycles_per_free(VfreeIndex::HashTable, live);
        let ratio = linear / hash;
        println!("{:>12} {:>20.1} {:>20.1} {:>9.1}x", live, linear, hash, ratio);
        worst_ratio = worst_ratio.max(ratio);
    }

    report.add(
        "A4",
        "hash lookup is O(1)",
        "constant",
        "constant (measured)",
        {
            let small = lookup_cycles_per_free(VfreeIndex::HashTable, 64);
            let large = lookup_cycles_per_free(VfreeIndex::HashTable, 4_096);
            (large - small).abs() < 1.0
        },
    );
    report.add(
        "A4",
        "linear walk grows with live allocations",
        "O(live)",
        format!("up to {worst_ratio:.0}× slower at 4096 live"),
        worst_ratio > 10.0,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
