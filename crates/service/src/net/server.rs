//! The threaded, pipelined socket front-end of a fairDMS deployment
//! (DESIGN.md §13).
//!
//! [`NetServer::serve_tcp`] (and [`NetServer::serve_uds`] on Unix) bolts a
//! real listener onto an existing [`DmsClient`]. Each accepted connection
//! gets two threads:
//!
//! * a **reader** that decodes request frames and routes each one the way
//!   an in-process caller's would go: a read-only request is answered
//!   right here from the deployment's snapshot, a mutating one is
//!   dispatched into the actor's admission queue. It never waits for an
//!   actor reply before reading the next frame, which is what makes the
//!   wire pipelined: a client can keep dozens of requests in flight on
//!   one socket. At window 1 it also writes the reply it just computed,
//!   so a read on an idle connection never leaves this thread;
//! * a **writer** (the reply sequencer) that receives every dispatched
//!   request's one-shot reply receiver, and every reply queued behind one
//!   or resolved with more requests already buffered, *in request order*
//!   and writes each response back as it resolves. Writes are batched:
//!   the writer flushes only when its queue goes momentarily empty, so a
//!   burst of pipelined replies costs one syscall, not one per reply.
//!
//! [`crate::net::sequencer`] holds the hand-over between the two.
//!
//! Backpressure composes with the deployment's own admission control: a
//! reader blocked in `dispatch` (queue full) simply stops reading, which
//! fills the kernel socket buffer and eventually blocks the remote writer
//! — end-to-end flow control with no new machinery.
//!
//! The accept loop enforces [`NetServerConfig::max_connections`]:
//! over-limit sockets are *answered* — a `Busy` frame, flushed, then
//! close — never silently dropped. [`NetServerHandle::shutdown`] drains
//! gracefully: it stops the accept loop, half-closes every connection's
//! read side so readers observe EOF, and joins the writers, which answer
//! every already-accepted request before exiting.

use crate::api::{ServiceError, TenantId};
use crate::metrics::NetCounters;
use crate::net::frame::{
    read_frame, write_frame, Frame, FrameError, FrameKind, BODY_HEADER, LEN_PREFIX,
};
use crate::net::sequencer::{reply_lane, ReplyLane, Sequencer, TryWrite};
use crate::server::DmsClient;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Stack size for connection reader/writer threads. They hold only frame
/// buffers, so the default 8 MiB would waste address space at kilo-client
/// scale.
const CONN_STACK: usize = 256 * 1024;

/// Wire-plane deployment knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Connections served concurrently; the `max_connections + 1`-th
    /// socket is answered [`ServiceError::Busy`] and closed.
    pub max_connections: usize,
    /// Largest accepted frame body in bytes ([`FrameError::TooLong`]
    /// above it). Bounds per-connection memory against hostile or corrupt
    /// length prefixes.
    pub max_frame_len: u32,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 1024,
            max_frame_len: 64 << 20,
        }
    }
}

/// Transport abstraction: TCP and Unix sockets differ only in these six
/// operations, so the accept loop and connection threads are written once.
trait NetStream: Read + Write + Send + Sized + 'static {
    /// Another handle onto the same socket (the reader, the writer and
    /// the drain hook each own one).
    fn duplicate(&self) -> io::Result<Self>;
    /// Half- or full-closes the socket.
    fn shut(&self, how: Shutdown) -> io::Result<()>;
    /// Sets `TCP_NODELAY` where it exists (no-op otherwise): replies are
    /// already batched per flush, so Nagle would only add latency.
    fn set_nodelay_opt(&self);
    /// Switches the socket — every handle onto it — between blocking and
    /// non-blocking I/O.
    fn nonblocking(&self, on: bool) -> io::Result<()>;
}

/// The inline door's write ([`crate::net::sequencer`]). The mode belongs to
/// the socket, not the handle, so this is for the reader thread alone, and
/// only while the connection's sequencer is idle: the reader is not reading
/// meanwhile, and an idle sequencer touches the socket only once the reader
/// has queued to it again.
impl<S: NetStream> TryWrite for S {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.nonblocking(true)?;
        let taken = match self.write(buf) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            taken => taken,
        };
        self.nonblocking(false)?;
        taken
    }
}

impl NetStream for TcpStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn shut(&self, how: Shutdown) -> io::Result<()> {
        self.shutdown(how)
    }
    fn set_nodelay_opt(&self) {
        let _ = self.set_nodelay(true);
    }
    fn nonblocking(&self, on: bool) -> io::Result<()> {
        self.set_nonblocking(on)
    }
}

#[cfg(unix)]
impl NetStream for std::os::unix::net::UnixStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn shut(&self, how: Shutdown) -> io::Result<()> {
        self.shutdown(how)
    }
    fn set_nodelay_opt(&self) {}
    fn nonblocking(&self, on: bool) -> io::Result<()> {
        self.set_nonblocking(on)
    }
}

/// Listener side of the transport abstraction. Unblocking a thread parked
/// in `accept_stream` during drain is done with a throwaway
/// self-connection (see [`wake_listener`]) — the alternative to polling
/// with timeouts, which the repo's lint plane forbids.
trait NetListener: Send + 'static {
    /// Stream type this listener yields.
    type Stream: NetStream;
    /// Blocks for the next connection.
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

impl NetListener for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

#[cfg(unix)]
impl NetListener for std::os::unix::net::UnixListener {
    type Stream = std::os::unix::net::UnixStream;
    fn accept_stream(&self) -> io::Result<Self::Stream> {
        self.accept().map(|(s, _)| s)
    }
}

/// Routes each frame's tenant id to that tenant's in-process client — the
/// wire plane's half of the multi-tenant refactor (DESIGN.md §14). One
/// listener serves N isolated deployments; a frame addressed to a tenant
/// the router does not know is *answered* (`Invalid`), never dropped.
///
/// Tenant counts are small (one per live experiment), so a sorted slice
/// beats a hash map and keeps lookup allocation-free on the reader's hot
/// path.
#[derive(Clone)]
pub struct TenantRouter {
    tenants: Arc<[(TenantId, DmsClient)]>,
}

impl TenantRouter {
    /// A single-tenant router: every deployment so far is "tenant 0".
    pub fn single(client: DmsClient) -> Self {
        TenantRouter::new(vec![(0, client)])
    }

    /// A router over explicit `(tenant, client)` pairs. Panics on
    /// duplicate tenant ids (two deployments claiming one id is a wiring
    /// bug, not a runtime condition) or an empty set.
    pub fn new(mut tenants: Vec<(TenantId, DmsClient)>) -> Self {
        assert!(!tenants.is_empty(), "router needs at least one tenant");
        tenants.sort_by_key(|(id, _)| *id);
        assert!(
            tenants.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate tenant id in router"
        );
        TenantRouter {
            tenants: tenants.into(),
        }
    }

    /// The client owning `tenant`, if registered.
    pub fn client(&self, tenant: TenantId) -> Option<&DmsClient> {
        self.tenants
            .binary_search_by_key(&tenant, |(id, _)| *id)
            .ok()
            .map(|i| &self.tenants[i].1)
    }

    /// All registered tenants, ascending.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.tenants.iter().map(|(id, _)| *id)
    }
}

/// State shared by one connection's two threads.
struct ConnState {
    /// Set by the reader when the peer closed cleanly on a frame boundary
    /// or the server drained it; a close without this is abrupt.
    clean_eof: AtomicBool,
}

/// Everything the accept loop and connection threads share.
struct NetShared {
    router: TenantRouter,
    cfg: NetServerConfig,
    counters: Arc<NetCounters>,
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, Conn>>,
}

/// Registry entry for one live connection (type-erased over transports).
struct Conn {
    /// Half-closes the read side, making the reader observe EOF.
    drain: Box<dyn Fn() + Send>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    /// Set by the writer as its last act, so the accept loop can reap.
    finished: Arc<AtomicBool>,
}

/// Entry points for serving a deployment over real sockets.
pub struct NetServer;

impl NetServer {
    /// Serves `client`'s deployment over TCP as tenant 0. Binds `addr`
    /// (use port 0 for an ephemeral port, then
    /// [`NetServerHandle::local_addr`]) and returns once the listener is
    /// live.
    pub fn serve_tcp(
        client: DmsClient,
        addr: impl ToSocketAddrs,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        Self::serve_tcp_router(TenantRouter::single(client), addr, cfg)
    }

    /// Serves every tenant of `router` over one TCP listener
    /// (DESIGN.md §14): frames route by their tenant header; unknown
    /// tenants are answered `Invalid` on a live socket.
    pub fn serve_tcp_router(
        router: TenantRouter,
        addr: impl ToSocketAddrs,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handle = spawn_accept(router, listener, cfg)?;
        Ok(NetServerHandle {
            local_addr: Some(local),
            #[cfg(unix)]
            uds_path: None,
            ..handle
        })
    }

    /// Serves `client`'s deployment over a Unix-domain socket at `path`
    /// (removed on [`NetServerHandle::shutdown`]) as tenant 0. Binding
    /// fails if the path exists.
    #[cfg(unix)]
    pub fn serve_uds(
        client: DmsClient,
        path: impl Into<std::path::PathBuf>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        Self::serve_uds_router(TenantRouter::single(client), path, cfg)
    }

    /// Serves every tenant of `router` over one Unix-domain socket.
    #[cfg(unix)]
    pub fn serve_uds_router(
        router: TenantRouter,
        path: impl Into<std::path::PathBuf>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        let path = path.into();
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        let handle = spawn_accept(router, listener, cfg)?;
        Ok(NetServerHandle {
            uds_path: Some(path),
            ..handle
        })
    }
}

fn spawn_accept<L: NetListener>(
    router: TenantRouter,
    listener: L,
    cfg: NetServerConfig,
) -> io::Result<NetServerHandle> {
    let counters = Arc::new(NetCounters::new());
    // Attach to every tenant's registry so `Request::Metrics` (from any
    // client, local or remote, against any tenant) reports wire traffic.
    // The wire counters are deliberately *shared* across tenants — one
    // listener, one set of sockets — while everything else in a tenant's
    // snapshot stays isolated. First listener wins per registry; later
    // listeners keep their own counters but snapshots follow the first —
    // one deployment, one wire plane, is the intended topology.
    for tenant in router.tenants() {
        if let Some(client) = router.client(tenant) {
            client.metrics_registry().attach_net(Arc::clone(&counters));
        }
    }
    let shared = Arc::new(NetShared {
        router,
        cfg,
        counters: Arc::clone(&counters),
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("dms-net-accept".into())
        .spawn(move || accept_loop(accept_shared, listener))?;
    Ok(NetServerHandle {
        shared,
        accept: Some(accept),
        counters,
        local_addr: None,
        #[cfg(unix)]
        uds_path: None,
    })
}

fn accept_loop<L: NetListener>(shared: Arc<NetShared>, listener: L) {
    let mut next_conn_id = 0u64;
    let mut consecutive_errors = 0u32;
    loop {
        let stream = match listener.accept_stream() {
            Ok(s) => s,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => break,
            Err(_) => {
                // Transient accept errors (ECONNABORTED, EMFILE bursts)
                // are retried; a listener that only ever errors is dead
                // and spinning on it would burn a core.
                consecutive_errors += 1;
                if consecutive_errors > 64 {
                    break;
                }
                continue;
            }
        };
        consecutive_errors = 0;
        if shared.shutting_down.load(Ordering::SeqCst) {
            // Either the drain's self-connect wake or a client racing the
            // drain; both get a clean close.
            break;
        }
        reap_finished(&shared);
        if shared.counters.active() >= shared.cfg.max_connections as u64 {
            reject_busy(&shared, stream);
            continue;
        }
        shared.counters.conn_opened();
        next_conn_id += 1;
        if let Err(e) = spawn_connection(&shared, next_conn_id, stream) {
            // Thread spawn failed (fd/thread exhaustion): undo the gauge
            // and keep serving existing connections.
            shared.counters.conn_closed(false);
            let _ = e;
        }
    }
}

/// Joins connections whose writer finished, keeping the registry bounded
/// by *live* connections rather than lifetime connections.
fn reap_finished(shared: &NetShared) {
    let mut done = Vec::new();
    {
        let mut conns = shared.conns.lock();
        let ids: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.finished.load(Ordering::SeqCst))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            if let Some(conn) = conns.remove(&id) {
                done.push(conn);
            }
        }
    }
    for conn in done {
        let _ = conn.reader.join();
        let _ = conn.writer.join();
    }
}

/// Answers an over-limit socket with a `Busy` frame and closes it.
fn reject_busy<S: NetStream>(shared: &NetShared, mut stream: S) {
    shared.counters.busy_rejected();
    let mut buf = Vec::with_capacity(LEN_PREFIX + BODY_HEADER);
    let n = write_frame(&mut buf, 0, 0, FrameKind::Busy, &[]);
    if stream.write_all(&buf).and_then(|()| stream.flush()).is_ok() {
        shared.counters.frame_out(n as u64);
    }
    let _ = stream.shut(Shutdown::Both);
}

fn spawn_connection<S: NetStream>(
    shared: &Arc<NetShared>,
    conn_id: u64,
    stream: S,
) -> io::Result<()> {
    stream.set_nodelay_opt();
    let drain_half = stream.duplicate()?;
    let (lane, sequencer) = reply_lane(stream.duplicate()?, Arc::clone(&shared.counters));
    let state = Arc::new(ConnState {
        clean_eof: AtomicBool::new(false),
    });
    let finished = Arc::new(AtomicBool::new(false));

    let reader = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        thread::Builder::new()
            .name(format!("dms-net-r{conn_id}"))
            .stack_size(CONN_STACK)
            .spawn(move || reader_loop(shared, stream, lane, state))?
    };
    let writer = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        let finished = Arc::clone(&finished);
        thread::Builder::new()
            .name(format!("dms-net-w{conn_id}"))
            .stack_size(CONN_STACK)
            .spawn(move || {
                // Armed before the first byte moves: the admission slot
                // (`connections_active`) and the reap flag are released on
                // *every* exit path, including a panic inside the writer
                // (say, a codec assertion while encoding a reply). Without
                // the guard a panicking writer leaked its slot forever;
                // enough of them and the accept loop answers Busy to every
                // future peer — a permanent brown-out from transient
                // failures.
                let mut teardown = ConnTeardown {
                    shared: &shared,
                    finished: &finished,
                    graceful: false,
                };
                teardown.graceful = writer_loop(sequencer, &state);
            })
    };
    let writer = match writer {
        Ok(w) => w,
        Err(e) => {
            // Reader is already running; sever its socket so it exits.
            let _ = drain_half.shut(Shutdown::Both);
            let _ = reader.join();
            return Err(e);
        }
    };
    shared.conns.lock().insert(
        conn_id,
        Conn {
            drain: Box::new(move || {
                let _ = drain_half.shut(Shutdown::Read);
            }),
            reader,
            writer,
            finished,
        },
    );
    Ok(())
}

/// Decodes frames and answers or dispatches them without waiting for actor
/// replies — the pipelining half of the connection.
fn reader_loop<S: NetStream>(
    shared: Arc<NetShared>,
    stream: S,
    mut lane: ReplyLane,
    state: Arc<ConnState>,
) {
    let mut r = BufReader::with_capacity(64 * 1024, stream);
    loop {
        let frame = match read_frame(&mut r, shared.cfg.max_frame_len) {
            Ok(f) => f,
            Err(FrameError::Eof) => {
                state.clean_eof.store(true, Ordering::SeqCst);
                break;
            }
            Err(e) if e.is_protocol_violation() => {
                shared.counters.decode_error();
                lane.fatal(0, 0, e.to_string());
                break;
            }
            Err(_) => break, // transport error: abrupt
        };
        shared
            .counters
            .frame_in((LEN_PREFIX + BODY_HEADER + frame.payload.len()) as u64);
        let more_buffered = !r.buffer().is_empty();
        if !handle_frame(&shared, frame, &mut lane, r.get_mut(), more_buffered) {
            break;
        }
    }
    // Dropping the lane is the writer's signal that no more requests are
    // coming; it answers what's queued, then exits.
}

/// Answers or dispatches one decoded frame. `false` ends the connection:
/// the peer broke the protocol (the `ProtocolError` frame is queued) or an
/// inline reply could not be written through `direct`.
fn handle_frame(
    shared: &NetShared,
    frame: Frame,
    lane: &mut ReplyLane,
    direct: &mut impl TryWrite,
    more_buffered: bool,
) -> bool {
    let Frame {
        seq,
        tenant,
        kind,
        payload,
    } = frame;
    let violation = |lane: &mut ReplyLane, msg: String| {
        shared.counters.decode_error();
        lane.fatal(seq, tenant, msg);
        false
    };
    if kind != FrameKind::Request {
        return violation(lane, format!("unexpected {kind:?} frame from client"));
    }
    let req = match crate::net::codec::decode_request(&payload) {
        Ok(req) => req,
        Err(e) => return violation(lane, e.to_string()),
    };
    let resolved = match shared.router.client(tenant) {
        // Unknown tenant: a well-formed request to a mis-addressed (or
        // already retired) tenant is the *request's* problem, not the
        // connection's — answer `Invalid` and keep the socket up, so one
        // typo'd tenant id in a pipelined stream doesn't kill the other
        // tenants sharing the connection.
        None => Err(ServiceError::Invalid(format!("unknown tenant {tenant}"))),
        // Answered on this thread from the read snapshot.
        Some(client) if req.is_read_only() => client.serve_read(req),
        Some(client) => match client.dispatch(req) {
            Ok(rx) => {
                lane.dispatched(seq, tenant, rx);
                return true;
            }
            // Admission failed (service shutting down): answer this
            // request with the error; the connection itself stays up.
            Err(e) => Err(e),
        },
    };
    lane.resolved(direct, seq, tenant, resolved, more_buffered)
        .is_ok()
}

/// Releases one connection's admission accounting exactly once, on every
/// writer exit path — normal return *and* unwind. `graceful` is updated
/// from [`writer_loop`]'s return value on the normal path and stays
/// `false` (abrupt) when the writer panics.
struct ConnTeardown<'a> {
    shared: &'a NetShared,
    finished: &'a AtomicBool,
    graceful: bool,
}

impl Drop for ConnTeardown<'_> {
    fn drop(&mut self) {
        self.shared.counters.conn_closed(self.graceful);
        self.finished.store(true, Ordering::SeqCst);
    }
}

/// Runs the connection's sequencer to its end, then closes the socket.
/// Returns whether the close was graceful (every accepted request answered
/// and flushed); the caller's [`ConnTeardown`] guard does the accounting.
fn writer_loop<S: NetStream>(mut sequencer: Sequencer<S>, state: &ConnState) -> bool {
    let answered = sequencer.run();
    let _ = sequencer.stream().shut(Shutdown::Both);
    if !answered {
        // The shut above unblocks the reader (it may be mid-read on a live
        // peer); whatever replies it still queues are discarded.
        sequencer.discard_queued();
    }
    answered && state.clean_eof.load(Ordering::SeqCst)
}

/// Handle onto a running listener; dropping it *without* calling
/// [`NetServerHandle::shutdown`] leaves the listener running for the
/// process lifetime (detached), mirroring `ServerHandle`'s contract.
pub struct NetServerHandle {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    counters: Arc<NetCounters>,
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    uds_path: Option<std::path::PathBuf>,
}

impl NetServerHandle {
    /// The bound TCP address (`None` for Unix-socket listeners) — the
    /// thing to hand to
    /// [`crate::net::client::PipelinedClient::connect_tcp`] after binding
    /// port 0.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Live view of this listener's wire counters (the same numbers
    /// `Request::Metrics` reports under `net`).
    pub fn counters(&self) -> &Arc<NetCounters> {
        &self.counters
    }

    /// Graceful drain: stop accepting, half-close every connection's read
    /// side, and join connection threads — every request already read off
    /// a socket is answered and flushed before this returns. The
    /// underlying deployment keeps running; shut it down separately via
    /// its own `ServerHandle` once its listeners are drained.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let accept = match self.accept.take() {
            Some(a) => a,
            None => return,
        };
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        wake_listener(self);
        let _ = accept.join();
        let conns: Vec<Conn> = {
            let mut map = self.shared.conns.lock();
            map.drain().map(|(_, c)| c).collect()
        };
        for conn in &conns {
            (conn.drain)();
        }
        for conn in conns {
            let _ = conn.reader.join();
            let _ = conn.writer.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Unblocks the accept thread with a throwaway self-connection.
fn wake_listener(handle: &NetServerHandle) {
    if let Some(addr) = handle.local_addr {
        let _ = TcpStream::connect(addr);
        return;
    }
    #[cfg(unix)]
    if let Some(path) = &handle.uds_path {
        let _ = std::os::unix::net::UnixStream::connect(path);
    }
}
