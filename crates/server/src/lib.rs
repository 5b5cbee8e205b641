//! The networked Sigma front end: a session-per-client TCP server over
//! the in-process [`SigmaService`].
//!
//! The paper's deployment shape (§2, Figure 2) is a multi-tenant web
//! service: thousands of concurrent workbook sessions share one service
//! tier in front of the customer's warehouse. This crate provides that
//! boundary: a [`TcpListener`] accept loop spawns one thread per client,
//! each running a read-frame → dispatch → write-frame session loop over
//! [`sigma_protocol`] messages.
//!
//! Two properties the session loop guarantees:
//!
//! * **Revocation is immediate.** The session remembers only the bearer
//!   token, never the resolved user; every request re-authenticates
//!   against [`sigma_service::tenancy::Tenancy`] under its linearizable
//!   lock. Revoking a token fails the session's *next* request even if it
//!   authenticated hours ago.
//! * **Backpressure is explicit.** Admission rejections from the workload
//!   manager surface as [`Response::Overloaded`] with a `retry_after`
//!   hint; the session stays healthy and the client decides when to
//!   retry. A session thread never queues unboundedly on behalf of a
//!   tenant whose quota is exhausted.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sigma_protocol::{
    ErrorKind, FrameError, Request, Response, WireBatch, WireOutcome, WirePriority,
};
use sigma_service::workload::Priority;
use sigma_service::{QueryRequest, ServedFrom, ServiceError, SigmaService};

pub mod client;

pub use client::{ClientError, QueryReply, RemoteOutcome, SigmaClient};

/// A running server: the accept loop plus its shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<SigmaService>,
    shutdown: Arc<AtomicBool>,
    sessions: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 to let the OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the socket — tests and benches use this to run
    /// the same requests in process and assert bit-identical answers.
    pub fn service(&self) -> &Arc<SigmaService> {
        &self.service
    }

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.sessions.load(Ordering::SeqCst)
    }

    /// Stop accepting and join the accept loop. Already-connected
    /// sessions drain on their own threads; their next read fails once
    /// the client hangs up.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and serve the given service until the handle shuts down.
pub fn serve(service: Arc<SigmaService>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let sessions = Arc::new(AtomicUsize::new(0));
    let accept_thread = {
        let service = service.clone();
        let shutdown = shutdown.clone();
        let sessions = sessions.clone();
        std::thread::Builder::new()
            .name("sigma-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let service = service.clone();
                    // The guard moves into the session thread, keeping the
                    // gauge honest if the session loop panics — and if the
                    // spawn fails, the dropped closure drops it right here.
                    let gauge = Gauge::enter(&sessions);
                    let _ = std::thread::Builder::new()
                        .name("sigma-session".into())
                        .spawn(move || {
                            let _gauge = gauge;
                            run_session(&service, stream);
                        });
                }
            })?
    };
    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        sessions,
        accept_thread: Some(accept_thread),
    })
}

/// One live session on the server's gauge: counted while the guard lives.
struct Gauge(Arc<AtomicUsize>);

impl Gauge {
    fn enter(sessions: &Arc<AtomicUsize>) -> Gauge {
        sessions.fetch_add(1, Ordering::SeqCst);
        Gauge(sessions.clone())
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-connection session state: only the *token*, never the resolved
/// user — resolution happens per request so revocation bites immediately.
#[derive(Default)]
struct Session {
    token: Option<String>,
    connection: Option<String>,
}

fn run_session(service: &SigmaService, stream: TcpStream) {
    // Request/response frames are small; Nagle would trade interactive
    // latency for nothing here.
    stream.set_nodelay(true).ok();
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let mut session = Session::default();
    loop {
        let request = match sigma_protocol::read_request(&mut reader) {
            Ok(r) => r,
            Err(FrameError::Closed) => return,
            Err(e @ (FrameError::Io(_) | FrameError::Truncated)) => {
                // Stream is unusable; a reply could not be delivered.
                let _ = e;
                return;
            }
            Err(e) => {
                // Framing-level rejection (bad magic/version/CRC/length):
                // tell the peer why, then hang up — resynchronizing a
                // corrupt frame stream is not worth the ambiguity.
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: e.to_string(),
                };
                let _ = sigma_protocol::write_response(&mut writer, &resp);
                return;
            }
        };
        let close = matches!(request, Request::CloseSession);
        let response = handle_request(service, &mut session, request);
        if sigma_protocol::write_response(&mut writer, &response).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

fn handle_request(service: &SigmaService, session: &mut Session, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::CloseSession => Response::Closed,
        Request::Auth { token } => match service.tenancy.authenticate(&token) {
            Ok(user) => {
                session.token = Some(token);
                Response::AuthOk {
                    user_id: user.id,
                    org: user.org,
                    name: user.name,
                    role: format!("{:?}", user.role).to_ascii_lowercase(),
                }
            }
            Err(e) => error_response(e),
        },
        Request::OpenSession { connection } => {
            let Some(token) = session.token.clone() else {
                return not_authenticated();
            };
            match service.check_connection(&token, &connection) {
                Ok(()) => {
                    session.connection = Some(connection.clone());
                    Response::SessionOpened { connection }
                }
                Err(e) => error_response(e),
            }
        }
        Request::QueryElement {
            workbook_json,
            element,
            priority,
            deadline_ms,
        } => {
            let Some(token) = session.token.clone() else {
                return not_authenticated();
            };
            let Some(connection) = session.connection.clone() else {
                return no_session();
            };
            let req = QueryRequest {
                token: &token,
                connection: &connection,
                workbook_json: &workbook_json,
                element: &element,
                priority: match priority {
                    WirePriority::Interactive => Priority::Interactive,
                    WirePriority::Background => Priority::Background,
                },
            };
            let deadline = deadline_ms.map(Duration::from_millis);
            match service.run_query_deadline(&req, deadline) {
                Ok(outcome) => Response::Query(WireOutcome {
                    batch: WireBatch::from_batch(&outcome.batch),
                    query_id: outcome.query_id,
                    sql: outcome.sql,
                    served_from: match outcome.served_from {
                        ServedFrom::Warehouse => "warehouse",
                        ServedFrom::QueryDirectory => "query_directory",
                        ServedFrom::StageReuse => "stage_reuse",
                    }
                    .to_string(),
                    queue_wait_us: outcome.queue_wait.as_micros() as u64,
                    stage_hits: outcome.stage_hits as u64,
                    stages_executed: outcome.stages_executed as u64,
                    rows_scanned: outcome.rows_scanned as u64,
                }),
                Err(e) => error_response(e),
            }
        }
        Request::Explain {
            workbook_json,
            element,
        } => {
            let Some(token) = session.token.clone() else {
                return not_authenticated();
            };
            let Some(connection) = session.connection.clone() else {
                return no_session();
            };
            let workbook = match sigma_core::Workbook::from_json(&workbook_json) {
                Ok(wb) => wb,
                Err(e) => {
                    return Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: e.to_string(),
                    }
                }
            };
            match service.compile_with_token(&token, &connection, &workbook, &element) {
                Ok(compiled) => Response::Explained { sql: compiled.sql },
                Err(e) => error_response(e),
            }
        }
        Request::UploadCsv { table, csv } => {
            let Some(token) = session.token.clone() else {
                return not_authenticated();
            };
            let Some(connection) = session.connection.clone() else {
                return no_session();
            };
            match service.upload_csv(&token, &connection, &table, &csv) {
                Ok(rows) => Response::Uploaded { rows: rows as u64 },
                Err(e) => error_response(e),
            }
        }
    }
}

fn not_authenticated() -> Response {
    Response::Error {
        kind: ErrorKind::Unauthenticated,
        message: "authenticate first (send Auth)".into(),
    }
}

fn no_session() -> Response {
    Response::Error {
        kind: ErrorKind::BadRequest,
        message: "open a session first (send OpenSession)".into(),
    }
}

fn error_response(e: ServiceError) -> Response {
    match e {
        ServiceError::Overloaded { retry_after } => Response::Overloaded {
            retry_after_ms: retry_after.as_millis().max(1) as u64,
        },
        ServiceError::DeadlineExceeded { waited } => Response::Error {
            kind: ErrorKind::DeadlineExceeded,
            message: format!("deadline exceeded after waiting {waited:?}"),
        },
        ServiceError::Unauthenticated => Response::Error {
            kind: ErrorKind::Unauthenticated,
            message: "unauthenticated".into(),
        },
        ServiceError::Forbidden(m) => Response::Error {
            kind: ErrorKind::Forbidden,
            message: m,
        },
        ServiceError::NotFound(m) => Response::Error {
            kind: ErrorKind::NotFound,
            message: m,
        },
        ServiceError::BadRequest(m) => Response::Error {
            kind: ErrorKind::BadRequest,
            message: m,
        },
        ServiceError::Core(m) | ServiceError::Warehouse(m) => Response::Error {
            kind: ErrorKind::Internal,
            message: m,
        },
    }
}
