//! A minimal **blocking** HTTP/1.1 client for the edge's tests, load
//! generators and ops probes.
//!
//! This is the consumer-side counterpart of [`crate::http`]: it
//! understands exactly the subset the edge emits — status line,
//! headers, `Content-Length`-framed bodies, keep-alive and pipelining.
//! Responses a read pulls past the current one are carried over to the
//! next [`Client::recv`] call, so deeply pipelined exchanges parse
//! correctly. It is intentionally synchronous (one `TcpStream`, no
//! poller).

use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Extracts the `"distance"` value from a query-response body:
    /// `Some(d)` for a number, `None` for JSON `null` (also `None` on
    /// non-query bodies).
    pub fn distance(&self) -> Option<u64> {
        let s = std::str::from_utf8(&self.body).ok()?;
        let rest = s.split("\"distance\":").nth(1)?;
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
}

/// A pipelining-aware blocking HTTP client over one `TcpStream`.
pub struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    /// Connects with a 30 s read timeout and `TCP_NODELAY`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            carry: Vec::new(),
        })
    }

    /// The underlying stream (for raw reads and writes, timeouts).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Writes raw bytes (pipelined requests, partial requests…).
    pub fn send(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Sends `GET <target>` and reads one response.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: c\r\n\r\n").as_bytes())?;
        self.recv()
    }

    /// Sends `POST <target>` with a JSON body and reads one response.
    pub fn post_json(&mut self, target: &str, body: &[u8]) -> io::Result<Response> {
        let mut raw = format!(
            "POST {target} HTTP/1.1\r\nHost: c\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        self.send(&raw)?;
        self.recv()
    }

    /// Reads one response (head + `Content-Length` body), carrying any
    /// extra bytes over to the next call. EOF mid-response yields
    /// `ErrorKind::UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "EOF before response head (carry: {:?})",
                        String::from_utf8_lossy(&self.carry)
                    ),
                ));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        while self.carry.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-body"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let body = self.carry[head_end..head_end + len].to_vec();
        self.carry.drain(..head_end + len);
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// Reads to end-of-stream. `Ok(true)` means the server closed with
    /// a clean EOF and no unconsumed response bytes — the signature of
    /// a graceful drain; `Ok(false)` means stray bytes arrived first.
    /// Errors (reset, timeout) surface as `Err`.
    pub fn read_eof(&mut self) -> io::Result<bool> {
        if !self.carry.is_empty() {
            return Ok(false);
        }
        let mut chunk = [0u8; 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(_) => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
