//! A minimal blocking client for the framed JSON protocol — what the
//! TCP integration tests, the repository benchmark, and operators' scripts
//! use.

use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    HealthResponse, MutationKind, MutationRequest, MutationResponse, QueryRequest, QueryResponse,
    Request, Response,
};
use crate::wire::{self, WireError};

/// Errors a client call can surface.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed.
    Connect(String),
    /// Framing failed mid-call.
    Wire(WireError),
    /// The server's reply did not decode, or it answered the wrong op.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(e) => write!(f, "connect failed: {e}"),
            Self::Wire(e) => write!(f, "wire failure: {e}"),
            Self::Protocol(e) => write!(f, "protocol failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One connection to a `wmh-serve` front end.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server address.
    ///
    /// # Errors
    /// [`ClientError::Connect`] when the TCP connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Connect(e.to_string()))?;
        Ok(Self { stream })
    }

    /// Issue a similarity query.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure. A degraded *service*
    /// answer is not an error — it arrives as the response's typed outcome.
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        match self.round_trip(&Request::Query(request.clone()))? {
            Response::Query(response) => Ok(response),
            Response::Health(_) | Response::Mutation(_) => {
                Err(ClientError::Protocol("non-query reply to a query".into()))
            }
        }
    }

    /// Insert a new document under `id`.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure. Rejections
    /// (duplicate id, bad document, read-only service, …) are not errors —
    /// they arrive as the response's typed outcome.
    pub fn insert(
        &mut self,
        id: u64,
        doc: Vec<(u64, f64)>,
        deadline_us: Option<u64>,
    ) -> Result<MutationResponse, ClientError> {
        self.mutate(&MutationRequest { id, kind: MutationKind::Insert { doc }, deadline_us })
    }

    /// Delete the document under `id`.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure.
    pub fn delete(
        &mut self,
        id: u64,
        deadline_us: Option<u64>,
    ) -> Result<MutationResponse, ClientError> {
        self.mutate(&MutationRequest { id, kind: MutationKind::Delete, deadline_us })
    }

    /// Feed `items` into the streaming document under `id` (creating it if
    /// absent), decaying the existing histogram by `lambda` first.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure.
    pub fn stream(
        &mut self,
        id: u64,
        lambda: f64,
        items: Vec<(u64, f64)>,
        deadline_us: Option<u64>,
    ) -> Result<MutationResponse, ClientError> {
        self.mutate(&MutationRequest {
            id,
            kind: MutationKind::Stream { lambda, items },
            deadline_us,
        })
    }

    /// Issue an arbitrary mutation.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure.
    pub fn mutate(&mut self, request: &MutationRequest) -> Result<MutationResponse, ClientError> {
        match self.round_trip(&Request::Mutate(request.clone()))? {
            Response::Mutation(response) => Ok(response),
            Response::Query(_) | Response::Health(_) => {
                Err(ClientError::Protocol("non-mutation reply to a mutation".into()))
            }
        }
    }

    /// Issue a health probe.
    ///
    /// # Errors
    /// [`ClientError`] on transport or decode failure.
    pub fn health(&mut self) -> Result<HealthResponse, ClientError> {
        match self.round_trip(&Request::Health)? {
            Response::Health(response) => Ok(response),
            Response::Query(_) | Response::Mutation(_) => {
                Err(ClientError::Protocol("non-health reply to a health probe".into()))
            }
        }
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.stream, &wmh_json::to_string(request))
            .map_err(ClientError::Wire)?;
        let body = wire::read_frame(&mut self.stream)
            .map_err(ClientError::Wire)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        wmh_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))
    }
}
