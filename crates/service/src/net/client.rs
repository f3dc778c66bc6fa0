//! Socket clients for the wire plane (DESIGN.md §13).
//!
//! [`PipelinedClient`]: one socket, one background demux thread, any
//! number of cheap [`PipelinedClient::clone`] handles.
//! [`PipelinedClient::submit`] encodes and writes a request frame and
//! returns a [`Pending`] ticket *without waiting*; dozens of requests can
//! be in flight on one connection and the server answers them in order.
//! Writes buffer in userspace — [`Pending::wait`] flushes lazily, so a
//! pipelined burst pays one syscall, not one per request.
//!
//! Code that wants the remote deployment to feel in-process uses the
//! blocking typed helpers of [`DmsApi`], which this client implements over
//! [`PipelinedClient::call`]. A call made while nothing else is in flight
//! on the connection reads its own reply on the calling thread — a
//! blocking socket's two wake-ups, no hand-off to the demux thread; a call
//! made behind other requests is submit + wait, so "synchronous" callers
//! on different threads still share the socket efficiently.
//!
//! ## Who reads a reply
//!
//! Replies arrive in request order, so the read half of the socket is
//! taken in request order. Tickets reach the demux thread in the order
//! their frames are written (both happen under the writer lock), and it
//! holds the read half for one reply at a time. A self-reading call
//! decides that nothing is in flight, *and takes the read half*, under
//! that same writer lock — before any later request can be written — and
//! lets go once its own frame is off the socket. Seq order is lock order;
//! `tests/model_client_read.rs` checks it under every interleaving.
//! `submit` always goes through the demux thread: a large window needs a
//! reader that is never busy elsewhere, or the server's inline replies
//! and the client's unread ones would block each other.
//!
//! ## Failure model
//!
//! The transport can die at any moment (server drain, peer reset, torn
//! frame). Whichever thread observes a terminal condition latches a
//! *sticky* [`ServiceError`] — the first cause wins — and every in-flight
//! and future request is answered with it: a [`Pending::wait`] never hangs
//! on a dead connection. `Busy` frames (connection-limit rejection)
//! surface as [`ServiceError::Busy`]; protocol violations as
//! [`ServiceError::Protocol`]; everything else as
//! [`ServiceError::Unavailable`].

use crate::api::{DmsApi, Request, ServiceError, ServiceResult, TenantId};
use crate::net::codec::{decode_error, decode_reply, encode_request};
use crate::net::frame::{
    read_frame, write_frame, Frame, FrameError, FrameKind, BODY_HEADER, LEN_PREFIX,
};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use fairdms_check::atomic::{AtomicBool, AtomicU64};
use fairdms_check::thread::{self, JoinHandle};
use parking_lot::{Mutex, MutexGuard};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Frame-size cap a client accepts from the server. Replies carry model
/// checkpoints and label tensors, so this is generous; it exists to bound
/// memory against a corrupt length prefix, not to police the server.
const CLIENT_MAX_FRAME: u32 = 256 << 20;

/// Write half of a client connection (type-erased over TCP/UDS, or an
/// in-memory transport handed to [`PipelinedClient::over`]).
pub trait WriteHalf: Write + Send {
    /// Full-closes the transport so a thread blocked reading it unblocks.
    fn shut(&self);
}

/// Read half of a client connection.
type ReadHalf = BufReader<Box<dyn Read + Send>>;

impl WriteHalf for TcpStream {
    fn shut(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

#[cfg(unix)]
impl WriteHalf for std::os::unix::net::UnixStream {
    fn shut(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Serialized writer state: frame encoding order on the socket equals
/// registration order with the reader, because both happen under this
/// lock.
struct WriterState {
    stream: io::BufWriter<Box<dyn WriteHalf>>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence number written into the buffer.
    written_seq: u64,
}

/// What the demux thread shares with the handles: the read half and the
/// terminal-failure state. Split out of [`ClientInner`] so the demux
/// thread does not keep the whole client alive: connection teardown is
/// driven by [`ClientInner`]'s drop, which must run as soon as the last
/// *handle* is gone.
struct ConnShared {
    /// Held by whichever thread is taking a reply frame off the socket:
    /// the demux thread, one ticket at a time, or a caller reading its own.
    read_half: Mutex<ReadHalf>,
    /// Seq of the last reply taken off the socket. Replies arrive in seq
    /// order, so under the writer lock `answered_seq + 1 == next_seq`
    /// means nothing is in flight.
    answered_seq: AtomicU64,
    /// Set once the connection is terminally dead.
    closed: AtomicBool,
    /// The sticky terminal error (populated before `closed` is set).
    error: Mutex<Option<ServiceError>>,
}

impl ConnShared {
    fn sticky_error(&self) -> ServiceError {
        self.error
            .lock()
            .clone()
            .unwrap_or(ServiceError::Unavailable)
    }

    /// Takes the reply to request `seq` off the socket — the one place a
    /// reply frame is read and classified, for the demux thread and
    /// self-reading callers alike. `Err` is terminal and already latched:
    /// it is the connection's sticky error.
    fn read_reply(&self, r: &mut ReadHalf, seq: u64) -> Result<ServiceResult, ServiceError> {
        // Once a cause is latched nothing reads the socket again.
        if self.closed.load(Ordering::SeqCst) {
            if let Some(sticky) = self.error.lock().clone() {
                return Err(sticky);
            }
        }
        match classify(read_frame(r, CLIENT_MAX_FRAME), seq) {
            Ok(result) => {
                self.answered_seq.store(seq, Ordering::SeqCst);
                Ok(result)
            }
            Err(terminal) => {
                // The first cause stays; the error is latched *before*
                // `closed` is set, so a racing submit that sees `closed`
                // reads a populated error.
                let sticky = self.error.lock().get_or_insert(terminal).clone();
                self.closed.store(true, Ordering::SeqCst);
                Err(sticky)
            }
        }
    }
}

/// Sorts what came off the socket while waiting for the reply to `seq`:
/// that reply, or the terminal condition that ends the connection.
fn classify(frame: Result<Frame, FrameError>, seq: u64) -> Result<ServiceResult, ServiceError> {
    let frame = match frame {
        Ok(frame) => frame,
        Err(FrameError::Eof | FrameError::Io(_)) => return Err(ServiceError::Unavailable),
        Err(e) => return Err(ServiceError::Protocol(e.to_string())),
    };
    match frame.kind {
        FrameKind::Busy => Err(ServiceError::Busy),
        FrameKind::ProtocolError => Err(ServiceError::Protocol(format!(
            "server rejected stream: {}",
            String::from_utf8_lossy(&frame.payload)
        ))),
        _ if frame.seq != seq => Err(ServiceError::Protocol(format!(
            "reply seq {} arrived while waiting for {}",
            frame.seq, seq
        ))),
        FrameKind::ReplyOk => decode_reply(&frame.payload)
            .map(Ok)
            .map_err(|e| ServiceError::Protocol(format!("undecodable reply: {e}"))),
        FrameKind::ReplyErr => decode_error(&frame.payload)
            .map(Err)
            .map_err(|e| ServiceError::Protocol(format!("undecodable error: {e}"))),
        other => Err(ServiceError::Protocol(format!(
            "unexpected {other:?} frame"
        ))),
    }
}

/// One in-flight registration handed to the demux thread: the request's
/// sequence number and the channel its reply resolves.
type PendingSlot = (u64, Sender<ServiceResult>);

struct ClientInner {
    writer: Mutex<WriterState>,
    /// Highest sequence number known flushed to the kernel.
    flushed_seq: AtomicU64,
    conn: Arc<ConnShared>,
    /// Registration channel to the demux thread, in seq order. `None`
    /// once teardown has begun.
    pending_tx: Mutex<Option<Sender<PendingSlot>>>,
    /// Demux thread handle, joined on teardown.
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Sever the socket so a demux thread blocked mid-read unblocks,
        // drop the registration sender so one parked on its channel
        // unblocks, then join. Order matters: joining before dropping the
        // sender would deadlock an idle demux thread.
        self.writer.lock().stream.get_ref().shut();
        self.pending_tx.lock().take();
        let handle = self.reader.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// A pipelined, multi-handle client connection to a fairDMS wire-plane
/// listener. Cloning shares the socket; all clones' requests interleave
/// on one pipeline. See the module docs for the failure model.
#[derive(Clone)]
pub struct PipelinedClient {
    inner: Arc<ClientInner>,
    /// The tenant every frame from this handle addresses (DESIGN.md §14).
    /// Per-handle, not per-connection: [`PipelinedClient::for_tenant`]
    /// clones share the socket while talking to different tenants.
    tenant: TenantId,
}

/// An in-flight request ticket from [`PipelinedClient::submit`]. Redeem
/// with [`Pending::wait`]; dropping it abandons the reply (the connection
/// is unaffected).
pub struct Pending {
    seq: u64,
    rx: Receiver<ServiceResult>,
    inner: Arc<ClientInner>,
}

impl PipelinedClient {
    /// Connects over TCP, addressing `tenant`.
    pub fn connect_tcp_tenant(addr: impl ToSocketAddrs, tenant: TenantId) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Self::over(Box::new(stream), Box::new(read_half), tenant)
    }

    /// Connects over a Unix-domain socket, addressing `tenant`.
    #[cfg(unix)]
    pub fn connect_uds_tenant(
        path: impl AsRef<std::path::Path>,
        tenant: TenantId,
    ) -> io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let read_half = stream.try_clone()?;
        Self::over(Box::new(stream), Box::new(read_half), tenant)
    }

    /// A handle sharing this connection (same socket, same pipeline)
    /// whose frames address `tenant` instead. Lets one physical
    /// connection interleave requests to several tenants.
    pub fn for_tenant(&self, tenant: TenantId) -> Self {
        PipelinedClient {
            inner: Arc::clone(&self.inner),
            tenant,
        }
    }

    /// A client over any byte transport: request frames leave through
    /// `write_half`, reply frames come back through `read_half`. The
    /// socket constructors end here; an in-memory pair lets tests and
    /// model checks drive the client without a listener.
    pub fn over(
        write_half: Box<dyn WriteHalf>,
        read_half: Box<dyn Read + Send>,
        tenant: TenantId,
    ) -> io::Result<Self> {
        let (pending_tx, pending_rx) = unbounded();
        let conn = Arc::new(ConnShared {
            read_half: Mutex::new(BufReader::with_capacity(64 * 1024, read_half)),
            answered_seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            error: Mutex::new(None),
        });
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(WriterState {
                stream: io::BufWriter::with_capacity(64 * 1024, write_half),
                next_seq: 1,
                written_seq: 0,
            }),
            flushed_seq: AtomicU64::new(0),
            conn: Arc::clone(&conn),
            pending_tx: Mutex::new(Some(pending_tx)),
            reader: Mutex::new(None),
        });
        let reader = thread::Builder::new()
            .name("dms-net-client".into())
            .spawn(move || demux_loop(conn, pending_rx))?;
        *inner.reader.lock() = Some(reader);
        Ok(PipelinedClient { inner, tenant })
    }

    /// Encodes `req`, queues it on the socket, and returns immediately
    /// with a ticket for its reply. The frame may sit in the userspace
    /// buffer until [`Pending::wait`] (or a later submit filling the
    /// buffer) flushes it.
    pub fn submit(&self, req: &Request) -> Pending {
        let payload = encode_request(req);
        self.enqueue(self.inner.writer.lock(), &payload)
    }

    /// Registers the next request with the demux thread and buffers its
    /// frame.
    fn enqueue(&self, mut w: MutexGuard<'_, WriterState>, payload: &[u8]) -> Pending {
        let (tx, rx) = bounded(1);
        let seq = w.next_seq;
        w.next_seq += 1;
        let registered = if self.inner.conn.closed.load(Ordering::SeqCst) {
            false
        } else {
            // Register before writing: the demux thread must know about
            // `seq` before the server can possibly answer it. Channel
            // order equals seq order because both happen under the writer
            // lock.
            match &*self.inner.pending_tx.lock() {
                Some(ptx) => ptx.send((seq, tx.clone())).is_ok(),
                None => false,
            }
        };
        if registered {
            if w.stream.write_all(&self.frame(seq, payload)).is_err() {
                // The demux thread will observe the dead socket and answer
                // this (and everything else) with the sticky error.
                self.inner.conn.closed.store(true, Ordering::SeqCst);
            } else {
                w.written_seq = seq;
            }
        } else {
            let _ = tx.send(Err(self.inner.conn.sticky_error()));
        }
        drop(w);
        Pending {
            seq,
            rx,
            inner: Arc::clone(&self.inner),
        }
    }

    fn frame(&self, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(LEN_PREFIX + BODY_HEADER + payload.len());
        write_frame(&mut frame, seq, self.tenant, FrameKind::Request, payload);
        frame
    }

    /// Sends `req` and blocks for its reply. With nothing else in flight
    /// on the connection the calling thread reads the reply itself;
    /// otherwise this is submit + wait.
    pub fn call(&self, req: &Request) -> ServiceResult {
        let payload = encode_request(req);
        let conn = &self.inner.conn;
        let mut w = self.inner.writer.lock();
        if conn.closed.load(Ordering::SeqCst)
            || conn.answered_seq.load(Ordering::SeqCst) + 1 != w.next_seq
        {
            return self.enqueue(w, &payload).wait();
        }
        // Nothing is in flight, so the demux thread holds no ticket and —
        // tickets being issued under the writer lock held here — gets none
        // until this call has its turn on the read half: taken now, before
        // any later request can be written (module docs).
        let mut r = conn.read_half.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        let frame = self.frame(seq, &payload);
        if w.stream
            .write_all(&frame)
            .and_then(|()| w.stream.flush())
            .is_ok()
        {
            w.written_seq = seq;
            self.inner.flushed_seq.store(seq, Ordering::SeqCst);
        } else {
            // As in `enqueue`: the read below observes the dead socket.
            conn.closed.store(true, Ordering::SeqCst);
        }
        drop(w);
        conn.read_reply(&mut r, seq).unwrap_or_else(Err)
    }

    /// Whether the connection has terminally failed (all further requests
    /// will answer the same sticky error without touching the socket).
    pub fn is_closed(&self) -> bool {
        self.inner.conn.closed.load(Ordering::SeqCst)
    }
}

impl ClientInner {
    /// Flushes buffered request frames through `seq`.
    fn flush_to(&self, seq: u64) {
        if self.flushed_seq.load(Ordering::SeqCst) >= seq {
            return;
        }
        let mut w = self.writer.lock();
        let written = w.written_seq;
        if self.flushed_seq.load(Ordering::SeqCst) >= seq {
            return; // raced with another waiter
        }
        if w.stream.flush().is_err() {
            self.conn.closed.store(true, Ordering::SeqCst);
            return;
        }
        self.flushed_seq.store(written, Ordering::SeqCst);
    }
}

impl Pending {
    /// Blocks until the reply arrives (flushing the request first if it
    /// is still buffered). Never hangs on a dead connection: terminal
    /// transport failures resolve every ticket with the sticky error.
    pub fn wait(self) -> ServiceResult {
        self.inner.flush_to(self.seq);
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(self.inner.conn.sticky_error()))
    }
}

/// The connection's demux thread: serves tickets in seq order, holding the
/// read half for one reply at a time; after a terminal condition, answers
/// everything in flight (and everything still arriving) with the sticky
/// error until every handle is gone.
fn demux_loop(conn: Arc<ConnShared>, pending_rx: Receiver<PendingSlot>) {
    let terminal = loop {
        let Ok((seq, tx)) = pending_rx.recv() else {
            return; // all handles dropped, nothing in flight
        };
        let reply = conn.read_reply(&mut conn.read_half.lock(), seq);
        match reply {
            Ok(result) => {
                let _ = tx.send(result);
            }
            // Answered after the error is latched, so the waiter never
            // sees a bare hang-up in place of the real cause.
            Err(sticky) => {
                let _ = tx.send(Err(sticky.clone()));
                break sticky;
            }
        }
    };
    while let Ok((_, tx)) = pending_rx.recv() {
        let _ = tx.send(Err(terminal.clone()));
    }
}

impl DmsApi for PipelinedClient {
    fn call(&self, req: Request) -> ServiceResult {
        PipelinedClient::call(self, &req)
    }
}
