//! Socket clients for the wire plane (DESIGN.md §13).
//!
//! [`PipelinedClient`]: one socket, one background reader thread, any
//! number of cheap [`PipelinedClient::clone`] handles.
//! [`PipelinedClient::submit`] encodes and writes a request frame and
//! returns a [`Pending`] ticket *without waiting*; dozens of requests can
//! be in flight on one connection and the server's reply sequencer answers
//! them in order. Writes buffer in userspace — [`Pending::wait`] flushes
//! lazily, so a pipelined burst pays one syscall, not one per request.
//!
//! Code that wants the remote deployment to feel in-process uses the
//! blocking typed helpers of [`DmsApi`], which this client implements as
//! submit + wait — so even "synchronous" callers on different threads
//! share the socket efficiently.
//!
//! ## Failure model
//!
//! The transport can die at any moment (server drain, peer reset, torn
//! frame). When the reader thread observes any terminal condition it
//! records a *sticky* [`ServiceError`] and answers every in-flight and
//! future request with it — a [`Pending::wait`] never hangs on a dead
//! connection. `Busy` frames (connection-limit rejection) surface as
//! [`ServiceError::Busy`]; protocol violations as
//! [`ServiceError::Protocol`]; everything else as
//! [`ServiceError::Unavailable`].

use crate::api::{DmsApi, Request, ServiceError, ServiceResult, TenantId};
use crate::net::codec::{decode_error, decode_reply, encode_request};
use crate::net::frame::{read_frame, write_frame, FrameError, FrameKind};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use fairdms_flows::jobs::DEFAULT_TENANT;
use parking_lot::Mutex;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Frame-size cap a client accepts from the server. Replies carry model
/// checkpoints and label tensors, so this is generous; it exists to bound
/// memory against a corrupt length prefix, not to police the server.
const CLIENT_MAX_FRAME: u32 = 256 << 20;

/// Write half of a client connection (type-erased over TCP/UDS).
trait WriteHalf: Write + Send {
    /// Full-closes the socket so the reader thread unblocks.
    fn shut(&self);
}

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

/// Terminal-failure state, shared between handles and the reader thread.
/// Split out of [`ClientInner`] so the reader does not keep the whole
/// client alive: connection teardown is driven by [`ClientInner`]'s drop,
/// which must run as soon as the last *handle* is gone.
struct ConnShared {
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
}

/// One in-flight registration handed to the reader: the request's
/// sequence number and the channel its reply resolves.
type PendingSlot = (u64, Sender<ServiceResult>);

struct ClientInner {
    writer: Mutex<WriterState>,
    /// Highest sequence number known flushed to the kernel.
    flushed_seq: AtomicU64,
    conn: Arc<ConnShared>,
    /// Registration channel to the reader thread, in seq order. `None`
    /// once teardown has begun.
    pending_tx: Mutex<Option<Sender<PendingSlot>>>,
    /// Reader thread handle, joined on teardown.
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Sever the socket so a reader blocked mid-read unblocks, drop
        // the registration sender so a reader parked on its channel
        // unblocks, then join. Order matters: joining before dropping the
        // sender would deadlock an idle reader.
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
    /// Connects over TCP, addressing tenant 0 (the single-tenant default).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_tcp_tenant(addr, DEFAULT_TENANT)
    }

    /// Connects over TCP, addressing `tenant` on a multi-tenant listener.
    pub fn connect_tcp_tenant(addr: impl ToSocketAddrs, tenant: TenantId) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Self::new(Box::new(stream), Box::new(read_half), tenant)
    }

    /// Connects over a Unix-domain socket, addressing tenant 0.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Self::connect_uds_tenant(path, DEFAULT_TENANT)
    }

    /// Connects over a Unix-domain socket, addressing `tenant`.
    #[cfg(unix)]
    pub fn connect_uds_tenant(
        path: impl AsRef<std::path::Path>,
        tenant: TenantId,
    ) -> io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let read_half = stream.try_clone()?;
        Self::new(Box::new(stream), Box::new(read_half), tenant)
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

    /// The tenant this handle addresses.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    fn new(
        write_half: Box<dyn WriteHalf>,
        read_half: Box<dyn Read + Send>,
        tenant: TenantId,
    ) -> io::Result<Self> {
        let (pending_tx, pending_rx) = unbounded();
        let conn = Arc::new(ConnShared {
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
            .spawn(move || client_reader(conn, read_half, pending_rx))?;
        *inner.reader.lock() = Some(reader);
        Ok(PipelinedClient { inner, tenant })
    }

    /// Encodes `req`, queues it on the socket, and returns immediately
    /// with a ticket for its reply. The frame may sit in the userspace
    /// buffer until [`Pending::wait`] (or a later submit filling the
    /// buffer) flushes it.
    pub fn submit(&self, req: &Request) -> Pending {
        let (tx, rx) = bounded(1);
        let payload = encode_request(req);
        let mut w = self.inner.writer.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        let registered = if self.inner.conn.closed.load(Ordering::SeqCst) {
            false
        } else {
            // Register before writing: the reader must know about `seq`
            // before the server can possibly answer it. Channel order
            // equals seq order because both happen under the writer lock.
            match &*self.inner.pending_tx.lock() {
                Some(ptx) => ptx.send((seq, tx.clone())).is_ok(),
                None => false,
            }
        };
        if registered {
            let mut frame = Vec::with_capacity(payload.len() + 16);
            write_frame(&mut frame, seq, self.tenant, FrameKind::Request, &payload);
            if w.stream.write_all(&frame).is_err() {
                // The reader will observe the dead socket and answer this
                // (and everything else) with the sticky error.
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

    /// Submit-and-wait in one step (window-1 pipelining).
    pub fn call(&self, req: &Request) -> ServiceResult {
        self.submit(req).wait()
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

/// The connection's reader thread: matches reply frames to pending
/// tickets in order; on any terminal condition, records the sticky error
/// and answers everything with it.
fn client_reader(
    conn: Arc<ConnShared>,
    read_half: Box<dyn Read + Send>,
    pending_rx: Receiver<PendingSlot>,
) {
    let mut r = BufReader::with_capacity(64 * 1024, read_half);
    // On a terminal condition, the ticket being served breaks out with the
    // loop so it can be answered with the sticky error *after* the error
    // is latched — dropping its sender early would race a waiter into
    // seeing `Unavailable` instead of the real cause.
    let (terminal, unanswered): (ServiceError, Option<Sender<ServiceResult>>) = loop {
        // Tickets arrive in seq order; the server answers in seq order.
        let (seq, tx) = match pending_rx.recv() {
            Ok(p) => p,
            Err(_) => return, // all handles dropped, nothing in flight
        };
        match read_frame(&mut r, CLIENT_MAX_FRAME) {
            Ok(frame) => {
                if frame.kind == FrameKind::Busy {
                    break (ServiceError::Busy, Some(tx));
                }
                if frame.kind == FrameKind::ProtocolError {
                    let msg = String::from_utf8_lossy(&frame.payload).into_owned();
                    break (
                        ServiceError::Protocol(format!("server rejected stream: {msg}")),
                        Some(tx),
                    );
                }
                if frame.seq != seq {
                    break (
                        ServiceError::Protocol(format!(
                            "reply seq {} arrived while waiting for {}",
                            frame.seq, seq
                        )),
                        Some(tx),
                    );
                }
                let result = match frame.kind {
                    FrameKind::ReplyOk => match decode_reply(&frame.payload) {
                        Ok(rep) => Ok(rep),
                        Err(e) => {
                            break (
                                ServiceError::Protocol(format!("undecodable reply: {e}")),
                                Some(tx),
                            )
                        }
                    },
                    FrameKind::ReplyErr => match decode_error(&frame.payload) {
                        Ok(err) => Err(err),
                        Err(e) => {
                            break (
                                ServiceError::Protocol(format!("undecodable error: {e}")),
                                Some(tx),
                            )
                        }
                    },
                    other => {
                        break (
                            ServiceError::Protocol(format!("unexpected {other:?} frame")),
                            Some(tx),
                        )
                    }
                };
                let _ = tx.send(result);
            }
            Err(FrameError::Eof) => break (ServiceError::Unavailable, Some(tx)),
            Err(FrameError::Io(_)) => break (ServiceError::Unavailable, Some(tx)),
            Err(e) => break (ServiceError::Protocol(e.to_string()), Some(tx)),
        }
    };
    // Terminal: latch the sticky error *before* marking closed so a
    // racing submit that sees `closed` reads a populated error, then
    // answer everything in flight (and everything still arriving) until
    // every handle is gone.
    *conn.error.lock() = Some(terminal.clone());
    conn.closed.store(true, Ordering::SeqCst);
    if let Some(tx) = unanswered {
        let _ = tx.send(Err(terminal.clone()));
    }
    while let Ok((_, tx)) = pending_rx.recv() {
        let _ = tx.send(Err(terminal.clone()));
    }
}

impl DmsApi for PipelinedClient {
    fn call(&self, req: Request) -> ServiceResult {
        PipelinedClient::call(self, &req)
    }
}
