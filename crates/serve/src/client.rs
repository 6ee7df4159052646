//! A minimal blocking client for the serve protocol — used by the
//! integration tests and perfbench's serve workload.

use crate::protocol::{
    io_error, parse_response, try_encode_frame, try_read_frame, ParsedResponse, WireError,
    MAX_FRAME_BYTES,
};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client. One request is in flight at a time (the protocol
/// is strictly request/response per frame).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`, reusing `timeout` as both the connect budget
    /// and the per-request read/write budget. Kept for callers whose
    /// requests are as fast as their connects; long-running ops (`mc`
    /// with many samples) should use [`ServeClient::try_connect_split`]
    /// so a slow *response* is not misread as a dead connection.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the connection cannot be established.
    pub fn try_connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<Self, WireError> {
        Self::try_connect_split(addr, timeout, Some(timeout))
    }

    /// Connects to `addr` with separate budgets: `connect_timeout` bounds
    /// connection establishment only, `request_timeout` bounds each
    /// read/write of a request/response exchange (`None` = block
    /// indefinitely on the socket).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the connection cannot be established.
    pub fn try_connect_split<A: ToSocketAddrs>(
        addr: A,
        connect_timeout: Duration,
        request_timeout: Option<Duration>,
    ) -> Result<Self, WireError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| io_error(&e))?
            .next()
            .ok_or_else(|| WireError::Io {
                detail: "address resolved to nothing".to_string(),
            })?;
        let stream =
            TcpStream::connect_timeout(&resolved, connect_timeout).map_err(|e| io_error(&e))?;
        let mut client = Self { stream };
        client.set_request_timeout(request_timeout)?;
        Ok(client)
    }

    /// Sets the per-request read/write timeout on the live connection
    /// (`None` = block indefinitely).
    fn set_request_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| io_error(&e))?;
        self.stream
            .set_write_timeout(timeout)
            .map_err(|e| io_error(&e))
    }

    /// Sends one request line and reads the parsed response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing, the socket, or an alien response.
    pub fn try_request(&mut self, line: &str) -> Result<ParsedResponse, WireError> {
        let raw = self.try_request_raw(line)?;
        parse_response(&raw)
    }

    /// Sends one request line and returns the raw response payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing or the socket; a connection the
    /// server closed without answering surfaces as `Truncated`.
    pub fn try_request_raw(&mut self, line: &str) -> Result<String, WireError> {
        let frame = try_encode_frame(line, MAX_FRAME_BYTES)?;
        self.stream.write_all(&frame).map_err(|e| io_error(&e))?;
        match try_read_frame(&mut self.stream, MAX_FRAME_BYTES)? {
            Some(payload) => Ok(payload),
            None => Err(WireError::Truncated { got: 0, want: 8 }),
        }
    }
}
