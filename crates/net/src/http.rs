//! A minimal, incremental HTTP/1.1 request parser and response builder.
//!
//! The edge speaks just enough HTTP for query traffic: `GET` requests
//! with keep-alive and pipelining, no chunked encoding, bodies only
//! tolerated up to a small cap (captured for the handful of POST
//! endpoints, e.g. `/v1/matrix`). The parser is
//! *incremental*: it is handed whatever bytes have arrived so far and
//! either returns a complete request (with how many bytes it consumed),
//! asks for more ([`ParseOutcome::Incomplete`]), or classifies the input
//! as irrecoverable ([`ParseOutcome::Error`]) — `400` for malformed
//! framing, `431` for oversized headers, `413` for oversized bodies.
//! It never panics on any byte sequence (fuzzed in `tests/parser_fuzz.rs`)
//! and never buffers beyond the configured caps, which is what keeps a
//! slow- or garbage-sending client from holding memory hostage.
//!
//! Line endings: CRLF per RFC 9112, with bare LF tolerated (curl-style
//! hand-written requests). Header *names* are matched ASCII
//! case-insensitively; values are trimmed of surrounding whitespace.

/// Caps enforced during parsing.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (432 → `431` beyond).
    pub max_head_bytes: usize,
    /// Maximum tolerated `Content-Length` (bodies are discarded; larger
    /// ones are answered `413` and the connection closed).
    pub max_body_bytes: usize,
    /// Maximum number of header lines (counts toward `431`).
    pub max_headers: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 4 * 1024,
            max_headers: 64,
        }
    }
}

/// A complete parsed request: head plus the (cap-bounded) body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Request method, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target as received: path plus optional `?query`.
    pub target: String,
    /// The request body, complete up to `Content-Length` (which the
    /// limits cap at [`HttpLimits::max_body_bytes`]); empty for the
    /// GET traffic that dominates the edge.
    pub body: Vec<u8>,
    /// Whether the connection persists after this exchange
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub keep_alive: bool,
    /// Total bytes this request occupied in the input (head + body) —
    /// the caller drains this many before parsing the next pipelined
    /// request.
    pub consumed: usize,
}

/// Irrecoverable classification of a request. The connection is closed
/// after the error response — framing can no longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// `400 Bad Request`: malformed request line, header or length.
    BadRequest(&'static str),
    /// `431 Request Header Fields Too Large`: head exceeds the cap.
    HeadersTooLarge,
    /// `413 Content Too Large`: declared body exceeds the cap.
    BodyTooLarge,
}

impl HttpError {
    /// The status code this error is answered with.
    pub fn status(self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
        }
    }

    /// Human-readable detail for the JSON error body.
    pub fn detail(self) -> &'static str {
        match self {
            HttpError::BadRequest(d) => d,
            HttpError::HeadersTooLarge => "request head exceeds limit",
            HttpError::BodyTooLarge => "request body exceeds limit",
        }
    }
}

/// Result of attempting to parse one request from buffered input.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// The buffer holds no complete request yet — read more.
    Incomplete,
    /// One complete request; the caller drains `.consumed` bytes.
    Request(ParsedRequest),
    /// The input can no longer be framed; answer and close.
    Error(HttpError),
}

/// Locates the end of the head: the index *past* the blank line.
/// Accepts `\r\n\r\n` and bare `\n\n` (and the `\n\r\n` mix that
/// lenient line endings produce).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.first() == Some(&b'\n') {
                return Some(i + 2);
            }
            if rest.len() >= 2 && rest[0] == b'\r' && rest[1] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> ParseOutcome {
    let head_end = match find_head_end(buf) {
        Some(end) => {
            if end > limits.max_head_bytes {
                return ParseOutcome::Error(HttpError::HeadersTooLarge);
            }
            end
        }
        None => {
            // No blank line yet: either genuinely partial, or the peer
            // is streaming an unbounded head.
            if buf.len() >= limits.max_head_bytes {
                return ParseOutcome::Error(HttpError::HeadersTooLarge);
            }
            return ParseOutcome::Incomplete;
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(s) => s,
        Err(_) => return ParseOutcome::Error(HttpError::BadRequest("head is not UTF-8")),
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    // Request line: METHOD SP target SP HTTP/1.x
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => return ParseOutcome::Error(HttpError::BadRequest("malformed request line")),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return ParseOutcome::Error(HttpError::BadRequest("malformed method"));
    }
    if !target.starts_with('/') {
        return ParseOutcome::Error(HttpError::BadRequest("target must be absolute path"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return ParseOutcome::Error(HttpError::BadRequest("unsupported HTTP version")),
    };

    // Headers.
    let mut keep_alive = http11;
    let mut content_length: Option<usize> = None;
    let mut n_headers = 0usize;
    for line in lines {
        if line.is_empty() {
            break; // blank line ends the head (trailing split artifacts too)
        }
        n_headers += 1;
        if n_headers > limits.max_headers {
            return ParseOutcome::Error(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseOutcome::Error(HttpError::BadRequest("header without colon"));
        };
        if name.is_empty() || name.ends_with(' ') || name.ends_with('\t') {
            // RFC 9112 §5.1: no whitespace between field name and colon.
            return ParseOutcome::Error(HttpError::BadRequest("malformed header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            // Token list; `close` and `keep-alive` are what matter here.
            for tok in value.split(',') {
                let tok = tok.trim();
                if tok.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if tok.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                // RFC 9112 §6.3: conflicting duplicate Content-Length
                // values are a framing attack (request smuggling behind
                // an intermediary that honours the other one) — reject.
                Ok(n) if content_length.is_none() || content_length == Some(n) => {
                    content_length = Some(n)
                }
                Ok(_) => {
                    return ParseOutcome::Error(HttpError::BadRequest(
                        "conflicting content-length",
                    ))
                }
                Err(_) => {
                    return ParseOutcome::Error(HttpError::BadRequest("bad content-length"))
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // The query edge has no use for request bodies; chunked
            // framing is refused outright rather than half-supported.
            return ParseOutcome::Error(HttpError::BadRequest(
                "transfer-encoding not supported",
            ));
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return ParseOutcome::Error(HttpError::BodyTooLarge);
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete; // body still arriving
    }

    ParseOutcome::Request(ParsedRequest {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        body: buf[head_end..total].to_vec(),
        keep_alive,
        consumed: total,
    })
}

/// Extracts a query-string parameter from a request target
/// (`/v1/distance?src=3&dst=9` → `query_param(target, "src") == Some("3")`).
/// No percent-decoding: the edge's parameters are plain integers.
pub fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    for pair in query.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == key {
            return Some(v);
        }
    }
    None
}

/// The path component of a request target (everything before `?`).
pub fn path_of(target: &str) -> &str {
    target.split_once('?').map_or(target, |(p, _)| p)
}

/// Standard reason phrase for the statuses the edge emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one HTTP/1.1 response. `extra` headers are emitted
/// verbatim (e.g. `("Retry-After", "1")` on 429s); `keep_alive: false`
/// adds `Connection: close` so well-behaved clients stop pipelining.
pub fn response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(
        format!("HTTP/1.1 {} {}\r\n", status, reason(status)).as_bytes(),
    );
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    for (k, v) in extra {
        out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// A JSON error body: `{"error":"..."}`, the detail escaped as a JSON
/// string (details may carry wire input such as file paths).
pub fn json_error(detail: &str) -> Vec<u8> {
    format!("{{\"error\":{}}}", ah_obs::json_string(detail)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> ParseOutcome {
        parse_request(bytes, &HttpLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let out = parse(b"GET /v1/distance?src=1&dst=2 HTTP/1.1\r\nHost: x\r\n\r\n");
        let ParseOutcome::Request(req) = out else {
            panic!("{out:?}")
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/v1/distance?src=1&dst=2");
        assert!(req.keep_alive);
        assert_eq!(
            req.consumed,
            b"GET /v1/distance?src=1&dst=2 HTTP/1.1\r\nHost: x\r\n\r\n".len()
        );
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseOutcome::Request(req) = parse(two) else {
            panic!()
        };
        assert_eq!(req.target, "/a");
        let ParseOutcome::Request(req2) = parse(&two[req.consumed..]) else {
            panic!()
        };
        assert_eq!(req2.target, "/b");
        assert_eq!(req.consumed + req2.consumed, two.len());
    }

    #[test]
    fn truncated_input_is_incomplete_at_every_prefix() {
        let full = b"GET /v1/path?src=0&dst=5 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
        for cut in 0..full.len() {
            match parse(&full[..cut]) {
                ParseOutcome::Incomplete => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
        let ParseOutcome::Request(req) = parse(full) else {
            panic!()
        };
        assert!(!req.keep_alive, "Connection: close honoured");
    }

    #[test]
    fn http10_defaults_to_close_keepalive_overrides() {
        let ParseOutcome::Request(r) = parse(b"GET / HTTP/1.0\r\n\r\n") else {
            panic!()
        };
        assert!(!r.keep_alive);
        let ParseOutcome::Request(r) =
            parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
        else {
            panic!()
        };
        assert!(r.keep_alive);
        let ParseOutcome::Request(r) = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!()
        };
        assert!(!r.keep_alive);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let ParseOutcome::Request(r) = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n") else {
            panic!()
        };
        assert_eq!(r.target, "/healthz");
        assert_eq!(r.consumed, 31);
    }

    #[test]
    fn malformed_inputs_classify_as_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",                                // no version
            b"GET / HTTP/2.0\r\n\r\n",                       // unsupported version
            b"GET / HTTP/1.1 extra\r\n\r\n",                 // trailing token
            b"G@T / HTTP/1.1\r\n\r\n",                       // bad method chars
            b"GET relative HTTP/1.1\r\n\r\n",                // non-absolute target
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",        // header without colon
            b"GET / HTTP/1.1\r\nName : v\r\n\r\n",           // space before colon
            b"GET / HTTP/1.1\r\nContent-Length: pear\r\n\r\n", // bad length
            b"POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\n", // conflict
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",                  // not UTF-8
        ] {
            match parse(bad) {
                ParseOutcome::Error(e) => {
                    assert_eq!(e.status(), 400, "{:?}", String::from_utf8_lossy(bad))
                }
                other => panic!("{:?} → {other:?}", String::from_utf8_lossy(bad)),
            }
        }
    }

    #[test]
    fn oversized_heads_classify_as_431() {
        let limits = HttpLimits {
            max_head_bytes: 128,
            ..Default::default()
        };
        // Complete but oversized head.
        let mut big = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 200));
        big.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            parse_request(&big, &limits),
            ParseOutcome::Error(HttpError::HeadersTooLarge)
        );
        // Endless head with no blank line: rejected once past the cap,
        // instead of buffering forever.
        let endless = vec![b'a'; 128];
        assert_eq!(
            parse_request(&endless, &limits),
            ParseOutcome::Error(HttpError::HeadersTooLarge)
        );
        // Too many headers.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            many.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(
            parse_request(&many, &HttpLimits::default()),
            ParseOutcome::Error(HttpError::HeadersTooLarge)
        );
    }

    #[test]
    fn bodies_are_captured_up_to_cap_and_413_beyond() {
        // A POST with a small body parses (and keeps the body bytes) and
        // consumes head + body so the next pipelined request aligns.
        let with_body = b"POST /v1/distance HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET";
        let ParseOutcome::Request(req) = parse(with_body) else {
            panic!()
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
        assert_eq!(&with_body[req.consumed..], b"GET");
        // GETs carry no body.
        let ParseOutcome::Request(get) = parse(b"GET / HTTP/1.1\r\n\r\n") else {
            panic!()
        };
        assert!(get.body.is_empty());
        // Body still in flight → Incomplete.
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel"),
            ParseOutcome::Incomplete
        );
        // Over the cap → 413 without waiting for the body.
        let out = parse(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
        assert_eq!(out, ParseOutcome::Error(HttpError::BodyTooLarge));
    }

    #[test]
    fn query_params_and_paths() {
        let t = "/v1/distance?src=3&dst=9&x=";
        assert_eq!(query_param(t, "src"), Some("3"));
        assert_eq!(query_param(t, "dst"), Some("9"));
        assert_eq!(query_param(t, "x"), Some(""));
        assert_eq!(query_param(t, "nope"), None);
        assert_eq!(query_param("/healthz", "src"), None);
        assert_eq!(path_of(t), "/v1/distance");
        assert_eq!(path_of("/healthz"), "/healthz");
    }

    #[test]
    fn response_framing() {
        let r = response(429, "application/json", b"{}", true, &[("Retry-After", "1")]);
        let s = String::from_utf8(r).unwrap();
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(!s.contains("Connection: close"));
        assert!(s.ends_with("\r\n\r\n{}"));

        let r = response(400, "application/json", &json_error("nope"), false, &[]);
        let s = String::from_utf8(r).unwrap();
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("{\"error\":\"nope\"}"));
    }

    #[test]
    fn json_error_escapes_quotes_and_backslashes() {
        let body = json_error(r#"bad "path" C:\snap"#);
        assert_eq!(body, br#"{"error":"bad \"path\" C:\\snap"}"#);
    }
}
