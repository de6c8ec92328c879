//! The TCP front end: an accept loop feeding per-connection handler
//! threads that speak length-prefixed JSON frames.
//!
//! Concurrency limits live in the [`Service`] (admission cap, bounded
//! shard inboxes), not in the transport: a connection is cheap, a request
//! is what gets admission-controlled. Malformed *JSON* gets a typed
//! `bad_request` response; broken *framing* (a peer that cannot even
//! speak length prefixes) closes the connection — there is no frame
//! boundary left to answer on.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::protocol::{Outcome, QueryResponse, Request, Response};
use crate::service::Service;
use crate::wire;

/// Errors from starting a server.
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listen socket failed.
    Bind(String),
    /// The OS refused the accept-loop thread.
    Spawn(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind(e) => write!(f, "binding listener: {e}"),
            Self::Spawn(e) => write!(f, "spawning accept loop: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A running TCP front end. Dropping it stops the accept loop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port — see [`Server::addr`]) and
    /// start accepting connections against `service`. Connections are
    /// served under the calling thread's failpoint scenario.
    ///
    /// # Errors
    /// [`ServerError`] when the bind or the accept-loop spawn fails.
    pub fn spawn(service: Arc<Service>, addr: impl ToSocketAddrs) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServerError::Bind(e.to_string()))?;
        let local = listener.local_addr().map_err(|e| ServerError::Bind(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let carry = wmh_fault::Carry::capture();
        let accept = std::thread::Builder::new()
            .name("wmh-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let (service, carry) = (Arc::clone(&service), carry.clone());
                    // Handlers are detached: each exits when its peer
                    // closes, and the process does not wait on idle
                    // keep-alive connections to shut the listener down.
                    let _ = std::thread::Builder::new()
                        .name("wmh-serve-conn".into())
                        .spawn(move || carry.run(|| handle_connection(&service, stream)));
                }
            })
            .map_err(|e| ServerError::Spawn(e.to_string()))?;
        Ok(Self { addr: local, stop, accept: Some(accept) })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Open connections finish
    /// on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Self-connect to unblock the accept loop's blocking `incoming`.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one connection: a sequence of framed requests, each answered in
/// order on the same stream.
fn handle_connection(service: &Service, mut stream: TcpStream) {
    loop {
        let body = match wire::read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // Clean close, or framing so broken there is no boundary to
            // answer on.
            Ok(None) | Err(_) => return,
        };
        let response = match wmh_json::from_str::<Request>(&body) {
            Ok(Request::Query(query)) => Response::Query(service.query(&query)),
            Ok(Request::Mutate(mutation)) => Response::Mutation(service.mutate(&mutation)),
            Ok(Request::Health) => Response::Health(service.health()),
            Err(e) => Response::Query(QueryResponse::empty(
                0,
                Outcome::BadRequest,
                service.health().shards_total,
                Some(format!("malformed request: {e}")),
            )),
        };
        if wire::write_frame(&mut stream, &wmh_json::to_string(&response)).is_err() {
            return;
        }
    }
}
