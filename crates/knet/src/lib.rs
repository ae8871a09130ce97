//! `knet` — the simulated socket layer.
//!
//! The paper's motivating servers (khttpd, checksumd, §2) all sit on the
//! accept/recv/send/close loop, so the simulator needs real connections to
//! exercise consolidation and Cosy on the traffic-serving path. This crate
//! models the in-kernel half of a loopback TCP stack:
//!
//! * **Listeners** with a bounded accept backlog: `connect` completes the
//!   handshake immediately (data may flow before `accept`, as with real
//!   TCP), or is refused when the backlog is full.
//! * **Stream sockets** paired at connect time, each with its own receive
//!   byte-ring. A send moves bytes into the *peer's* ring, partial when the
//!   ring is nearly full — genuine backpressure.
//! * **Non-blocking semantics** throughout: every operation that would
//!   block returns [`NetError::Again`] instead; there is no scheduler to
//!   sleep on in a single-threaded simulation.
//! * **Readiness** ([`NetStack::readiness`] / [`NetStack::poll`]): an
//!   epoll-style mask per socket so servers can find serviceable
//!   connections without spinning on `EAGAIN`.
//!
//! Socket descriptors are a per-process namespace *separate from file
//! descriptors* (`sys_sendfile` takes one of each). Cycle accounting
//! mirrors the file side: every operation charges
//! [`ksim::CostModel::net_proto`] for protocol processing, and ring moves
//! charge [`ksim::CostModel::sock_move_block16`] per 16-byte block — the
//! in-kernel memcpy a NIC-less loopback pays instead of DMA. Boundary
//! copies are charged by the syscall layer, not here, so consolidated
//! calls (sendfile) get their zero-copy discount naturally.
//!
//! Fault injection: `connect` consults `net.accept_overflow`, `send`
//! consults `net.send_again` (spurious flow-control stall) and
//! `net.peer_reset` (connection torn down mid-stream, both directions).

use std::collections::VecDeque;
use std::sync::Arc;

use ksim::SpinMutex;

use ksim::{FxHashMap, Machine, Pid};

/// Readiness: data (or a pending connection, or an EOF) to read.
pub const POLL_IN: i32 = 1;
/// Readiness: the peer's ring has room for at least one byte.
pub const POLL_OUT: i32 = 2;
/// The peer is gone (closed or reset); reads drain then return EOF.
pub const POLL_HUP: i32 = 4;

/// Default capacity of each socket's receive ring (64 KiB, the classic
/// default socket buffer size).
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Socket-layer failures, mapped onto the usual errno values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The operation would block (empty ring, full ring, empty backlog).
    Again,
    /// Not a live socket descriptor of this process.
    BadSock,
    /// The descriptor is not a listener (accept) or not fresh (bind).
    Invalid(&'static str),
    /// The socket is not connected.
    NotConnected,
    /// The socket is already connected or already listening.
    AlreadyConnected,
    /// The port already has a listener.
    AddrInUse,
    /// Nothing listening on the port, or the backlog is full.
    ConnRefused,
    /// The connection was reset (peer gone or injected RST).
    ConnReset,
}

impl NetError {
    /// Negative errno, matching `kvfs::VfsError::errno`'s convention.
    pub fn errno(self) -> i64 {
        match self {
            NetError::Again => -11,             // EAGAIN
            NetError::BadSock => -9,            // EBADF
            NetError::Invalid(_) => -22,        // EINVAL
            NetError::NotConnected => -107,     // ENOTCONN
            NetError::AlreadyConnected => -106, // EISCONN
            NetError::AddrInUse => -98,         // EADDRINUSE
            NetError::ConnRefused => -111,      // ECONNREFUSED
            NetError::ConnReset => -104,        // ECONNRESET
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Again => write!(f, "operation would block"),
            NetError::BadSock => write!(f, "bad socket descriptor"),
            NetError::Invalid(m) => write!(f, "invalid socket operation: {m}"),
            NetError::NotConnected => write!(f, "socket not connected"),
            NetError::AlreadyConnected => write!(f, "socket already connected"),
            NetError::AddrInUse => write!(f, "port already bound"),
            NetError::ConnRefused => write!(f, "connection refused"),
            NetError::ConnReset => write!(f, "connection reset"),
        }
    }
}

impl std::error::Error for NetError {}

ksim::counters! {
    /// Aggregate counters for tests and benches, kept under the stack lock.
    pub struct NetStats {
        connects,
        refused,
        accepts,
        resets,
        /// Bytes moved into receive rings by sends.
        bytes_queued,
        /// Bytes drained out of receive rings by recvs.
        bytes_delivered,
        /// Sends refused with EAGAIN: the peer's ring was full (or the
        /// `net.send_again` fault site fired) — the backpressure signal.
        send_eagains,
    }
}

/// Fixed-capacity byte ring: the per-socket receive buffer.
#[derive(Debug)]
struct ByteRing {
    buf: Vec<u8>,
    head: usize,
    len: usize,
}

impl ByteRing {
    fn with_capacity(cap: usize) -> ByteRing {
        ByteRing {
            buf: vec![0u8; cap.max(1)],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn free(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Append as much of `data` as fits; returns bytes accepted. At most
    /// two slice copies (the ring wraps once).
    fn push(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let first = n.min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&data[..first]);
        self.buf[..n - first].copy_from_slice(&data[first..n]);
        self.len += n;
        n
    }

    /// Pop up to `out.len()` bytes; returns bytes delivered.
    fn pop(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.len);
        let cap = self.buf.len();
        let first = n.min(cap - self.head);
        out[..first].copy_from_slice(&self.buf[self.head..self.head + first]);
        out[first..n].copy_from_slice(&self.buf[..n - first]);
        self.head = (self.head + n) % cap;
        self.len -= n;
        n
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// A connected (or half-open) stream endpoint.
#[derive(Debug)]
struct Stream {
    /// Global slot of the other endpoint; `None` once the peer closed.
    peer: Option<usize>,
    /// This endpoint's receive ring — sends from the peer land here.
    rx: ByteRing,
    /// The peer has closed: drain `rx`, then EOF.
    peer_closed: bool,
    /// The connection was reset; everything but `shutdown` fails.
    reset: bool,
}

#[derive(Debug)]
enum SockKind {
    /// `socket()` has run but neither `bind_listen` nor `connect` yet.
    Fresh,
    Listener {
        port: u16,
        /// Global slots of connection-pending server-side endpoints.
        pending: VecDeque<usize>,
        capacity: usize,
        /// SO_REUSEPORT-style accept sharding: when set, `connect` routes
        /// each new connection to the queue of the connecting thread's CPU
        /// (`ksim::thread_cpu() % n`) and `accept` drains its own CPU's
        /// queue first. `None` (the default) keeps the single shared
        /// backlog and its exact legacy behavior.
        shards: Option<Vec<VecDeque<usize>>>,
    },
    Stream(Stream),
}

#[derive(Debug)]
struct State {
    /// Global socket slots; `None` entries are reusable.
    socks: Vec<Option<SockKind>>,
    free: Vec<usize>,
    /// port → listener's global slot.
    ports: FxHashMap<u16, usize>,
    /// pid-indexed descriptor tables (small ints → global slots). Pids
    /// are dense and monotonic, so the per-call table fetch is a bounds
    /// checked index, not a hash probe.
    tables: Vec<Option<Vec<Option<usize>>>>,
    /// Recycled receive-ring buffers: a request/response server churns
    /// through two rings per connection, all the same capacity.
    ring_pool: Vec<Vec<u8>>,
    ring_capacity: usize,
    stats: NetStats,
}

impl State {
    fn alloc(&mut self, kind: SockKind) -> usize {
        match self.free.pop() {
            Some(gid) => {
                self.socks[gid] = Some(kind);
                gid
            }
            None => {
                self.socks.push(Some(kind));
                self.socks.len() - 1
            }
        }
    }

    fn release(&mut self, gid: usize) {
        self.socks[gid] = None;
        self.free.push(gid);
    }

    fn install_sd(&mut self, pid: Pid, gid: usize) -> i32 {
        let idx = pid.0 as usize;
        if self.tables.len() <= idx {
            self.tables.resize_with(idx + 1, || None);
        }
        let table = self.tables[idx].get_or_insert_with(Vec::new);
        match table.iter().position(|e| e.is_none()) {
            Some(sd) => {
                table[sd] = Some(gid);
                sd as i32
            }
            None => {
                table.push(Some(gid));
                (table.len() - 1) as i32
            }
        }
    }

    fn lookup(&self, pid: Pid, sd: i32) -> Result<usize, NetError> {
        if sd < 0 {
            return Err(NetError::BadSock);
        }
        self.tables
            .get(pid.0 as usize)
            .and_then(Option::as_ref)
            .and_then(|t| t.get(sd as usize).copied().flatten())
            .ok_or(NetError::BadSock)
    }

    /// Mark `gid`'s peer as orphaned (its other end is going away).
    /// A ring for a new connection: a recycled buffer resized to the
    /// current capacity, or a fresh one.
    fn take_ring(&mut self, cap: usize) -> ByteRing {
        let cap = cap.max(1);
        match self.ring_pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(cap, 0);
                ByteRing { buf, head: 0, len: 0 }
            }
            None => ByteRing::with_capacity(cap),
        }
    }

    fn recycle_ring(&mut self, ring: ByteRing) {
        if self.ring_pool.len() < 64 {
            self.ring_pool.push(ring.buf);
        }
    }

    fn orphan_peer(&mut self, gid: usize) {
        if let Some(Some(SockKind::Stream(st))) = self.socks.get_mut(gid) {
            st.peer = None;
            st.peer_closed = true;
        }
    }

    fn readiness_of(&self, gid: usize) -> i32 {
        match &self.socks[gid] {
            Some(SockKind::Fresh) | None => 0,
            Some(SockKind::Listener {
                pending, shards, ..
            }) => {
                let empty = pending.is_empty()
                    && shards
                        .as_ref()
                        .is_none_or(|s| s.iter().all(VecDeque::is_empty));
                if empty {
                    0
                } else {
                    POLL_IN
                }
            }
            Some(SockKind::Stream(st)) => {
                let mut mask = 0;
                if st.rx.len() > 0 || st.peer_closed || st.reset {
                    mask |= POLL_IN;
                }
                if st.peer_closed || st.reset {
                    mask |= POLL_HUP;
                } else if let Some(pgid) = st.peer {
                    if let Some(Some(SockKind::Stream(peer))) = self.socks.get(pgid) {
                        if peer.rx.free() > 0 {
                            mask |= POLL_OUT;
                        }
                    }
                }
                mask
            }
        }
    }
}

/// The per-machine socket stack. All operations are in-kernel primitives:
/// the syscall layer wraps them in crossings and boundary copies.
pub struct NetStack {
    machine: Arc<Machine>,
    state: SpinMutex<State>,
}

impl NetStack {
    pub fn new(machine: Arc<Machine>) -> NetStack {
        let state = SpinMutex::new(State {
            socks: Vec::new(),
            free: Vec::new(),
            ports: FxHashMap::default(),
            tables: Vec::new(),
            ring_pool: Vec::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            stats: NetStats::default(),
        });
        // The stack's one big lock is the first suspect in any SMP run:
        // feed its contention into the `ksim::stats` lock table (recorded
        // only on contended acquires — free on the fast path).
        state.set_contention(ksim::register_lock("knet.state"));
        NetStack { machine, state }
    }

    /// Receive-ring capacity for sockets created from now on (tests use a
    /// tiny ring to force genuine backpressure).
    pub fn set_ring_capacity(&self, bytes: usize) {
        self.state.lock().ring_capacity = bytes.max(1);
    }

    fn charge_proto(&self) {
        self.machine.charge_sys(self.machine.cost.net_proto);
    }

    fn charge_move(&self, bytes: usize) {
        self.machine
            .charge_sys((bytes as u64).div_ceil(16) * self.machine.cost.sock_move_block16);
    }

    /// `socket()`: allocate a fresh descriptor.
    pub fn socket(&self, pid: Pid) -> Result<i32, NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.alloc(SockKind::Fresh);
        Ok(st.install_sd(pid, gid))
    }

    /// `bind` + `listen` in one step: claim `port`, accept up to `backlog`
    /// pending connections.
    pub fn bind_listen(
        &self,
        pid: Pid,
        sd: i32,
        port: u16,
        backlog: usize,
    ) -> Result<(), NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        match &st.socks[gid] {
            Some(SockKind::Fresh) => {}
            Some(_) => return Err(NetError::AlreadyConnected),
            None => return Err(NetError::BadSock),
        }
        if st.ports.contains_key(&port) {
            return Err(NetError::AddrInUse);
        }
        st.socks[gid] = Some(SockKind::Listener {
            port,
            pending: VecDeque::new(),
            capacity: backlog.max(1),
            shards: None,
        });
        st.ports.insert(port, gid);
        Ok(())
    }

    /// Enable SO_REUSEPORT-style accept sharding on a listener: `cpus`
    /// per-CPU accept queues. New connections land on the connecting
    /// thread's CPU queue; `accept` serves its own CPU's queue first and
    /// falls back to sibling queues so no connection strands. Connections
    /// already pending stay on the shared backlog and are drained before
    /// sibling-queue stealing.
    pub fn set_accept_sharding(&self, pid: Pid, sd: i32, cpus: usize) -> Result<(), NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        match st.socks[gid].as_mut() {
            Some(SockKind::Listener { shards, .. }) => {
                *shards = Some(vec![VecDeque::new(); cpus.max(1)]);
                Ok(())
            }
            Some(_) => Err(NetError::Invalid("not a listener")),
            None => Err(NetError::BadSock),
        }
    }

    /// Depth of each per-CPU accept queue (empty vec when unsharded).
    /// For tests and the SMP bench's load-balance report.
    pub fn listener_shard_depths(&self, pid: Pid, sd: i32) -> Result<Vec<usize>, NetError> {
        let st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        match &st.socks[gid] {
            Some(SockKind::Listener { shards, .. }) => {
                Ok(shards.as_ref().map_or(Vec::new(), |s| {
                    s.iter().map(VecDeque::len).collect()
                }))
            }
            Some(_) => Err(NetError::Invalid("not a listener")),
            None => Err(NetError::BadSock),
        }
    }

    /// `connect()`: pair with a listener on `port`. The handshake completes
    /// immediately — data can be sent before the server accepts — or the
    /// connection is refused (nothing listening / backlog full / injected
    /// `net.accept_overflow`).
    pub fn connect(&self, pid: Pid, sd: i32, port: u16) -> Result<(), NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        match &st.socks[gid] {
            Some(SockKind::Fresh) => {}
            Some(SockKind::Stream(_)) => return Err(NetError::AlreadyConnected),
            Some(SockKind::Listener { .. }) => return Err(NetError::Invalid("listener")),
            None => return Err(NetError::BadSock),
        }
        let lgid = match st.ports.get(&port) {
            Some(&l) => l,
            None => {
                st.stats.refused += 1;
                return Err(NetError::ConnRefused);
            }
        };
        let overflow = {
            let Some(SockKind::Listener {
                pending,
                capacity,
                shards,
                ..
            }) = &st.socks[lgid]
            else {
                st.stats.refused += 1;
                return Err(NetError::ConnRefused);
            };
            let queued = pending.len()
                + shards
                    .as_ref()
                    .map_or(0, |s| s.iter().map(VecDeque::len).sum::<usize>());
            queued >= *capacity
        };
        if overflow
            || self
                .machine
                .faults
                .should_fail(kfault::sites::NET_ACCEPT_OVERFLOW)
        {
            st.stats.refused += 1;
            return Err(NetError::ConnRefused);
        }
        let cap = st.ring_capacity;
        let srv_rx = st.take_ring(cap);
        let cli_rx = st.take_ring(cap);
        let srv = st.alloc(SockKind::Stream(Stream {
            peer: Some(gid),
            rx: srv_rx,
            peer_closed: false,
            reset: false,
        }));
        if let Some(SockKind::Listener {
            pending, shards, ..
        }) = st.socks[lgid].as_mut()
        {
            match shards {
                Some(sh) => {
                    let n = sh.len();
                    sh[ksim::thread_cpu() % n].push_back(srv);
                }
                None => pending.push_back(srv),
            }
        }
        st.socks[gid] = Some(SockKind::Stream(Stream {
            peer: Some(srv),
            rx: cli_rx,
            peer_closed: false,
            reset: false,
        }));
        st.stats.connects += 1;
        Ok(())
    }

    /// `accept()`: take the oldest pending connection off the backlog and
    /// install it as a new descriptor. [`NetError::Again`] when empty.
    pub fn accept(&self, pid: Pid, sd: i32) -> Result<i32, NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        let srv = match st.socks[gid].as_mut() {
            Some(SockKind::Listener {
                pending, shards, ..
            }) => match shards {
                Some(sh) => {
                    let n = sh.len();
                    let own = ksim::thread_cpu() % n;
                    // Own CPU's queue, then pre-sharding leftovers, then
                    // siblings' queues (work conservation).
                    sh[own]
                        .pop_front()
                        .or_else(|| pending.pop_front())
                        .or_else(|| {
                            (1..n).find_map(|i| sh[(own + i) % n].pop_front())
                        })
                        .ok_or(NetError::Again)?
                }
                None => pending.pop_front().ok_or(NetError::Again)?,
            },
            Some(_) => return Err(NetError::Invalid("not a listener")),
            None => return Err(NetError::BadSock),
        };
        st.stats.accepts += 1;
        Ok(st.install_sd(pid, srv))
    }

    /// `send()`: move bytes into the peer's receive ring. Partial under
    /// backpressure; [`NetError::Again`] when the ring is full.
    pub fn send(&self, pid: Pid, sd: i32, data: &[u8]) -> Result<usize, NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        let pgid = match &st.socks[gid] {
            Some(SockKind::Stream(s)) => {
                if s.reset {
                    return Err(NetError::ConnReset);
                }
                if s.peer_closed {
                    return Err(NetError::ConnReset);
                }
                s.peer.ok_or(NetError::ConnReset)?
            }
            Some(SockKind::Fresh) => return Err(NetError::NotConnected),
            Some(SockKind::Listener { .. }) => return Err(NetError::Invalid("listener")),
            None => return Err(NetError::BadSock),
        };
        if self
            .machine
            .faults
            .should_fail(kfault::sites::NET_SEND_AGAIN)
        {
            st.stats.send_eagains += 1;
            return Err(NetError::Again);
        }
        if self
            .machine
            .faults
            .should_fail(kfault::sites::NET_PEER_RESET)
        {
            // An RST kills both directions and discards in-flight data.
            st.stats.resets += 1;
            if let Some(Some(SockKind::Stream(s))) = st.socks.get_mut(gid) {
                s.reset = true;
                s.rx.clear();
            }
            if let Some(Some(SockKind::Stream(p))) = st.socks.get_mut(pgid) {
                p.reset = true;
                p.rx.clear();
            }
            return Err(NetError::ConnReset);
        }
        if data.is_empty() {
            return Ok(0);
        }
        let n = match st.socks.get_mut(pgid) {
            Some(Some(SockKind::Stream(p))) => p.rx.push(data),
            _ => return Err(NetError::ConnReset),
        };
        if n == 0 {
            st.stats.send_eagains += 1;
            return Err(NetError::Again);
        }
        st.stats.bytes_queued += n as u64;
        drop(st);
        self.charge_move(n);
        Ok(n)
    }

    /// `recv()`: drain this endpoint's receive ring. Returns 0 at EOF (peer
    /// closed and the ring is empty), [`NetError::Again`] when the peer is
    /// alive but nothing has arrived yet.
    pub fn recv(&self, pid: Pid, sd: i32, out: &mut [u8]) -> Result<usize, NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        let n = match st.socks[gid].as_mut() {
            Some(SockKind::Stream(s)) => {
                if s.reset {
                    return Err(NetError::ConnReset);
                }
                let n = s.rx.pop(out);
                if n == 0 && !out.is_empty() && !s.peer_closed && s.peer.is_some() {
                    return Err(NetError::Again);
                }
                n
            }
            Some(SockKind::Fresh) => return Err(NetError::NotConnected),
            Some(SockKind::Listener { .. }) => return Err(NetError::Invalid("listener")),
            None => return Err(NetError::BadSock),
        };
        st.stats.bytes_delivered += n as u64;
        drop(st);
        self.charge_move(n);
        Ok(n)
    }

    /// `shutdown()`: full close. The descriptor is freed; a stream peer
    /// sees `peer_closed` (drain, then EOF); a listener's pending
    /// connections are dropped as if reset.
    pub fn shutdown(&self, pid: Pid, sd: i32) -> Result<(), NetError> {
        self.charge_proto();
        let mut st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        if let Some(t) = st.tables.get_mut(pid.0 as usize).and_then(Option::as_mut) {
            t[sd as usize] = None;
        }
        match st.socks[gid].take() {
            Some(SockKind::Fresh) | None => {}
            Some(SockKind::Listener {
                port,
                mut pending,
                shards,
                ..
            }) => {
                st.ports.remove(&port);
                if let Some(sh) = shards {
                    pending.extend(sh.into_iter().flatten());
                }
                for srv in pending {
                    let peer = match st.socks[srv].take() {
                        Some(SockKind::Stream(s)) => {
                            let p = s.peer;
                            st.recycle_ring(s.rx);
                            p
                        }
                        _ => None,
                    };
                    st.free.push(srv);
                    if let Some(p) = peer {
                        st.orphan_peer(p);
                    }
                }
            }
            Some(SockKind::Stream(s)) => {
                if let Some(p) = s.peer {
                    st.orphan_peer(p);
                }
                st.recycle_ring(s.rx);
            }
        }
        st.release(gid);
        Ok(())
    }

    /// Readiness mask for one descriptor (no cycle charge — this is the
    /// building block [`NetStack::poll`] and the syscall layer charge for).
    pub fn readiness(&self, pid: Pid, sd: i32) -> Result<i32, NetError> {
        let st = self.state.lock();
        let gid = st.lookup(pid, sd)?;
        Ok(st.readiness_of(gid))
    }

    /// Epoll-style sweep: the `(sd, mask)` pairs of every ready descriptor
    /// in `sds` (unknown descriptors are skipped, like a closed epoll
    /// registration).
    pub fn poll(&self, pid: Pid, sds: &[i32]) -> Vec<(i32, i32)> {
        self.charge_proto();
        let st = self.state.lock();
        let mut out = Vec::new();
        for &sd in sds {
            if let Ok(gid) = st.lookup(pid, sd) {
                let mask = st.readiness_of(gid);
                if mask != 0 {
                    out.push((sd, mask));
                }
            }
        }
        out
    }

    /// Open socket descriptors of `pid` (leak checking in tests).
    pub fn open_socks(&self, pid: Pid) -> usize {
        self.state
            .lock()
            .tables
            .get(pid.0 as usize)
            .and_then(Option::as_ref)
            .map_or(0, |t| t.iter().filter(|e| e.is_some()).count())
    }

    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("NetStack")
            .field("socks", &st.socks.iter().filter(|s| s.is_some()).count())
            .field("ports", &st.ports.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn stack() -> (Arc<Machine>, NetStack, Pid) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let pid = m.spawn_process();
        let net = NetStack::new(m.clone());
        (m, net, pid)
    }

    fn pair(net: &NetStack, pid: Pid, port: u16) -> (i32, i32, i32) {
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, port, 8).unwrap();
        let c = net.socket(pid).unwrap();
        net.connect(pid, c, port).unwrap();
        let s = net.accept(pid, l).unwrap();
        (l, c, s)
    }

    #[test]
    fn ring_wraps_and_preserves_order() {
        let mut r = ByteRing::with_capacity(8);
        assert_eq!(r.push(b"abcdef"), 6);
        let mut out = [0u8; 4];
        assert_eq!(r.pop(&mut out), 4);
        assert_eq!(&out, b"abcd");
        // Tail wraps around the 8-byte buffer.
        assert_eq!(r.push(b"ghijk"), 5);
        assert_eq!(r.free(), 1);
        let mut rest = [0u8; 16];
        let n = r.pop(&mut rest);
        assert_eq!(&rest[..n], b"efghijk");
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn connect_send_accept_recv_roundtrip() {
        let (_m, net, pid) = stack();
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 4).unwrap();
        let c = net.socket(pid).unwrap();
        net.connect(pid, c, 80).unwrap();
        // Data sent before accept queues in the pending endpoint's ring.
        assert_eq!(net.send(pid, c, b"GET /x").unwrap(), 6);
        let s = net.accept(pid, l).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(net.recv(pid, s, &mut buf).unwrap(), 6);
        assert_eq!(&buf[..6], b"GET /x");
        // Reply flows the other way.
        assert_eq!(net.send(pid, s, b"hello").unwrap(), 5);
        assert_eq!(net.recv(pid, c, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn backlog_overflow_refuses_and_unbound_port_refuses() {
        let (_m, net, pid) = stack();
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 2).unwrap();
        for _ in 0..2 {
            let c = net.socket(pid).unwrap();
            net.connect(pid, c, 80).unwrap();
        }
        let c3 = net.socket(pid).unwrap();
        assert_eq!(net.connect(pid, c3, 80), Err(NetError::ConnRefused));
        assert_eq!(net.connect(pid, c3, 9999), Err(NetError::ConnRefused));
        assert_eq!(net.stats().refused, 2);
        // Accepting one frees a backlog slot.
        net.accept(pid, l).unwrap();
        net.connect(pid, c3, 80).unwrap();
    }

    #[test]
    fn eagain_on_empty_ring_and_full_ring() {
        let (_m, net, pid) = stack();
        net.set_ring_capacity(16);
        let (_l, c, s) = pair(&net, pid, 80);
        let mut buf = [0u8; 8];
        assert_eq!(net.recv(pid, s, &mut buf), Err(NetError::Again));
        // Partial send under backpressure, then EAGAIN.
        assert_eq!(net.send(pid, c, &[7u8; 24]).unwrap(), 16);
        assert_eq!(net.send(pid, c, b"x"), Err(NetError::Again));
        assert_eq!(net.stats().send_eagains, 1, "ring-full EAGAIN is counted");
        assert_eq!(net.recv(pid, s, &mut buf).unwrap(), 8);
        assert_eq!(net.send(pid, c, b"x").unwrap(), 1);
        assert_eq!(net.stats().send_eagains, 1, "successful sends do not count");
        let d = net.stats().delta(&NetStats {
            send_eagains: 1,
            ..NetStats::default()
        });
        assert_eq!(d.send_eagains, 0);
    }

    #[test]
    fn readiness_masks_track_state() {
        let (_m, net, pid) = stack();
        net.set_ring_capacity(8);
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 4).unwrap();
        assert_eq!(net.readiness(pid, l).unwrap(), 0);
        let c = net.socket(pid).unwrap();
        net.connect(pid, c, 80).unwrap();
        assert_eq!(
            net.readiness(pid, l).unwrap(),
            POLL_IN,
            "pending connection"
        );
        let s = net.accept(pid, l).unwrap();
        assert_eq!(net.readiness(pid, l).unwrap(), 0);
        assert_eq!(
            net.readiness(pid, s).unwrap(),
            POLL_OUT,
            "nothing to read yet"
        );
        net.send(pid, c, &[1u8; 8]).unwrap();
        assert_eq!(net.readiness(pid, s).unwrap(), POLL_IN | POLL_OUT);
        assert_eq!(net.readiness(pid, c).unwrap(), 0, "peer ring is full");
        let polled = net.poll(pid, &[l, c, s]);
        assert_eq!(polled, vec![(s, POLL_IN | POLL_OUT)]);
        net.shutdown(pid, c).unwrap();
        assert_eq!(net.readiness(pid, s).unwrap() & POLL_HUP, POLL_HUP);
    }

    #[test]
    fn shutdown_gives_peer_drain_then_eof_then_reset_on_send() {
        let (_m, net, pid) = stack();
        let (_l, c, s) = pair(&net, pid, 80);
        net.send(pid, c, b"bye").unwrap();
        net.shutdown(pid, c).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            net.recv(pid, s, &mut buf).unwrap(),
            3,
            "drains queued bytes"
        );
        assert_eq!(net.recv(pid, s, &mut buf).unwrap(), 0, "then EOF");
        assert_eq!(net.send(pid, s, b"late"), Err(NetError::ConnReset));
        assert_eq!(net.open_socks(pid), 2, "listener + server side remain");
    }

    #[test]
    fn listener_shutdown_orphans_pending_connections() {
        let (_m, net, pid) = stack();
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 4).unwrap();
        let c = net.socket(pid).unwrap();
        net.connect(pid, c, 80).unwrap();
        net.shutdown(pid, l).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            net.recv(pid, c, &mut buf).unwrap(),
            0,
            "EOF: server went away"
        );
        // The port is free again.
        let l2 = net.socket(pid).unwrap();
        net.bind_listen(pid, l2, 80, 4).unwrap();
    }

    #[test]
    fn injected_peer_reset_kills_both_directions() {
        let (m, net, pid) = stack();
        let (_l, c, s) = pair(&net, pid, 80);
        net.send(pid, s, b"queued").unwrap();
        m.faults.arm(7);
        m.faults.add_policy(
            Some(kfault::sites::NET_PEER_RESET),
            kfault::Policy::FailNth(1),
        );
        assert_eq!(net.send(pid, c, b"x"), Err(NetError::ConnReset));
        m.faults.disarm();
        let mut buf = [0u8; 8];
        assert_eq!(
            net.recv(pid, c, &mut buf),
            Err(NetError::ConnReset),
            "in-flight data discarded"
        );
        assert_eq!(net.send(pid, s, b"y"), Err(NetError::ConnReset));
        assert_eq!(net.stats().resets, 1);
    }

    #[test]
    fn descriptor_tables_are_per_process() {
        let (m, net, pid_a) = stack();
        let pid_b = m.spawn_process();
        let sa = net.socket(pid_a).unwrap();
        assert_eq!(net.recv(pid_b, sa, &mut [0u8; 4]), Err(NetError::BadSock));
        assert_eq!(net.open_socks(pid_b), 0);
        // Cross-process connection: B binds, A connects.
        net.bind_listen(pid_b, net.socket(pid_b).unwrap(), 80, 4)
            .unwrap();
        net.connect(pid_a, sa, 80).unwrap();
        assert_eq!(net.send(pid_a, sa, b"hi").unwrap(), 2);
    }

    #[test]
    fn sharded_listener_routes_and_steals_by_cpu() {
        let (m, net, pid) = stack();
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 16).unwrap();
        net.set_accept_sharding(pid, l, 4).unwrap();
        // Connects from CPU 1 and CPU 2 land on their own shards.
        let c1 = net.socket(pid).unwrap();
        {
            let _b = m.bind_cpu(1);
            net.connect(pid, c1, 80).unwrap();
        }
        let c2 = net.socket(pid).unwrap();
        {
            let _b = m.bind_cpu(2);
            net.connect(pid, c2, 80).unwrap();
        }
        assert_eq!(net.listener_shard_depths(pid, l).unwrap(), vec![0, 1, 1, 0]);
        assert_eq!(net.readiness(pid, l).unwrap(), POLL_IN);
        // CPU 2's worker accepts its own connection first...
        {
            let _b = m.bind_cpu(2);
            net.accept(pid, l).unwrap();
        }
        assert_eq!(net.listener_shard_depths(pid, l).unwrap(), vec![0, 1, 0, 0]);
        // ...and an idle CPU with an empty shard steals from a sibling.
        {
            let _b = m.bind_cpu(3);
            net.accept(pid, l).unwrap();
        }
        assert_eq!(net.accept(pid, l), Err(NetError::Again));
        assert_eq!(net.readiness(pid, l).unwrap(), 0);
    }

    #[test]
    fn sharded_capacity_and_shutdown_cover_all_queues() {
        let (m, net, pid) = stack();
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 80, 2).unwrap();
        net.set_accept_sharding(pid, l, 4).unwrap();
        let mut clients = Vec::new();
        for cpu in 0..2 {
            let c = net.socket(pid).unwrap();
            let _b = m.bind_cpu(cpu);
            net.connect(pid, c, 80).unwrap();
            clients.push(c);
        }
        // Backlog capacity counts across every shard.
        let c3 = net.socket(pid).unwrap();
        assert_eq!(net.connect(pid, c3, 80), Err(NetError::ConnRefused));
        // Shutdown drops pending connections from all shards: clients see EOF.
        net.shutdown(pid, l).unwrap();
        for c in clients {
            assert_eq!(net.recv(pid, c, &mut [0u8; 4]).unwrap(), 0);
        }
    }

    #[test]
    fn every_op_charges_cycles() {
        let (m, net, pid) = stack();
        let c0 = m.clock.sys_cycles();
        let (_l, c, s) = pair(&net, pid, 80);
        net.send(pid, c, &[0u8; 1024]).unwrap();
        net.recv(pid, s, &mut [0u8; 1024]).unwrap();
        let spent = m.clock.sys_cycles() - c0;
        // 7 proto charges (socket x2, bind, connect, accept, send, recv)
        // plus two 1 KiB ring moves.
        let expect = 7 * m.cost.net_proto + 2 * 64 * m.cost.sock_move_block16;
        assert_eq!(spent, expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ksim::MachineConfig;
    use proptest::prelude::*;

    /// One connection's worth of traffic: each message is (client→server?,
    /// payload length). Lengths straddle the 32-byte ring so both partial
    /// sends and EAGAIN show up in the trace.
    fn arb_session() -> impl Strategy<Value = Vec<(bool, u8)>> {
        proptest::collection::vec((any::<bool>(), 0u8..48), 0..6)
    }

    fn run_pass(
        net: &NetStack,
        pid: Pid,
        sessions: &[Vec<(bool, u8)>],
        trace: &mut Vec<String>,
    ) {
        let l = net.socket(pid).unwrap();
        net.bind_listen(pid, l, 7000, 64).unwrap();
        for msgs in sessions {
            let c = net.socket(pid).unwrap();
            net.connect(pid, c, 7000).unwrap();
            let s = net.accept(pid, l).unwrap();
            for &(from_client, len) in msgs {
                let (tx, rx) = if from_client { (c, s) } else { (s, c) };
                let data = vec![len; len as usize];
                trace.push(format!("send {:?}", net.send(pid, tx, &data)));
                let mut buf = [0u8; 64];
                match net.recv(pid, rx, &mut buf) {
                    Ok(n) => trace.push(format!("recv {:?}", &buf[..n])),
                    Err(e) => trace.push(format!("recv {e:?}")),
                }
            }
            trace.push(format!("down {:?}", net.shutdown(pid, c)));
            trace.push(format!("down {:?}", net.shutdown(pid, s)));
        }
        net.shutdown(pid, l).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Recycled receive rings are observationally identical to fresh
        /// ones. The same randomized connect/send/recv/shutdown schedule
        /// runs twice on one stack: pass one starts on an empty pool (its
        /// first session allocates fresh rings), each shutdown returns
        /// them, and pass two runs entirely on recycled buffers. Errno and
        /// byte traces and simulated cycle totals (free cost model) must
        /// match.
        #[test]
        fn recycled_rings_match_fresh_rings(sessions in proptest::collection::vec(arb_session(), 1..8)) {
            let m = Arc::new(Machine::new(MachineConfig::small_free()));
            let pid = m.spawn_process();
            let net = NetStack::new(m.clone());
            net.set_ring_capacity(32);
            let cycles = |m: &Machine| {
                m.clock.user_cycles() + m.clock.sys_cycles() + m.clock.io_cycles()
            };

            let c0 = cycles(&m);
            let mut cold = Vec::new();
            run_pass(&net, pid, &sessions, &mut cold);
            let c1 = cycles(&m);
            // Each session's shutdown recycled its two endpoint rings (and
            // the next session reused them); the warm pass starts with the
            // last pair waiting in the pool.
            prop_assert_eq!(net.state.lock().ring_pool.len(), 2);
            let mut warm = Vec::new();
            run_pass(&net, pid, &sessions, &mut warm);
            let c2 = cycles(&m);

            prop_assert_eq!(&cold, &warm, "recycled rings changed observable behavior");
            prop_assert_eq!(c1 - c0, c2 - c1, "recycled rings changed cycle charges");
            prop_assert_eq!(net.open_socks(pid), 0, "every descriptor was shut down");
        }
    }
}
