//! The arena both engines run in: `[data (globals, literals) | heap ↑ ... ↓
//! stack]`, bump-allocated, inside a caller-prepared mapping.
//!
//! Every object is padded by 8 bytes (a red zone), so a legal
//! one-past-the-end pointer never aliases the neighbouring object — the
//! classic padding fix address-based bounds checkers (Jones & Kelly) rely
//! on.

use std::collections::HashMap;
use std::ops::Range;

use crate::exec::InterpError;

#[derive(Debug)]
pub(crate) struct Arena {
    pub(crate) span: Range<u64>,
    data_ptr: u64,
    /// 0 until init hands everything above the data region to the heap.
    heap_ptr: u64,
    pub(crate) stack_ptr: u64,
    /// Live heap objects: base → padded size.
    pub(crate) heap_live: HashMap<u64, usize>,
}

fn padded(size: usize) -> usize {
    size.max(1).next_multiple_of(8) + 8
}

impl Arena {
    /// An empty arena over `[base, base + len)`, reusing `heap_live`'s
    /// capacity.
    pub(crate) fn new(base: u64, len: usize, mut heap_live: HashMap<u64, usize>) -> Arena {
        heap_live.clear();
        let end = base + len as u64;
        Arena { span: base..end, data_ptr: base, heap_ptr: 0, stack_ptr: end, heap_live }
    }

    /// End of init: the heap starts above the data region.
    pub(crate) fn start_heap(&mut self) {
        self.heap_ptr = self.data_ptr;
    }

    /// Globals and string literals. A literal first used after init takes
    /// the next heap slot, never freed, so no malloc can return its address.
    pub(crate) fn alloc_data(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = padded(size) as u64;
        let (ptr, end) = match self.heap_ptr {
            0 => (&mut self.data_ptr, self.span.end),
            _ => (&mut self.heap_ptr, self.stack_ptr),
        };
        let addr = *ptr;
        if addr + size > end {
            return Err(InterpError::Oom("data"));
        }
        *ptr += size;
        Ok(addr)
    }

    pub(crate) fn alloc_heap(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = padded(size);
        let addr = self.heap_ptr;
        if addr + (size as u64) >= self.stack_ptr {
            return Err(InterpError::Oom("heap"));
        }
        self.heap_ptr += size as u64;
        self.heap_live.insert(addr, size);
        Ok(addr)
    }

    pub(crate) fn alloc_stack(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = padded(size) as u64;
        if self.stack_ptr - size <= self.heap_ptr {
            return Err(InterpError::Oom("stack"));
        }
        self.stack_ptr -= size;
        Ok(self.stack_ptr)
    }

    /// Release a heap object; false if `addr` is not a live one.
    pub(crate) fn free(&mut self, addr: u64) -> bool {
        self.heap_live.remove(&addr).is_some()
    }
}
