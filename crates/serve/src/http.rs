//! Hand-rolled HTTP/1.1: request parsing, response writing, chunked
//! transfer encoding, and the client-side request/stream helpers.
//!
//! The build environment has no crates.io access, so — exactly like
//! `gdf_core::json` replaces serde — this module replaces hyper with the
//! small, strictly-bounded subset of HTTP/1.1 the job API needs:
//!
//! * requests with an optional `Content-Length` body (chunked *request*
//!   bodies are rejected as malformed — `400` from the server);
//! * responses with a `Content-Length` body, or `Transfer-Encoding:
//!   chunked` for the streaming `/events` endpoint;
//! * `Connection: close` on every exchange — one request per connection
//!   keeps the server loop trivial and is plenty for a job API whose
//!   requests are rare and heavy, not chatty.
//!
//! All parsing is bounded (line length, header count, body size) so a
//! hostile peer can neither balloon memory nor wedge a handler thread —
//! the request body is additionally parsed with
//! [`gdf_core::json::ParseLimits::network`] by the router.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted request/status/header line, in bytes.
pub const MAX_LINE_BYTES: usize = 16 << 10;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;
/// Default request-body cap (the router's JSON limits are tighter still).
pub const DEFAULT_BODY_LIMIT: usize = 8 << 20;

/// Transport / syntax errors of the HTTP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Socket trouble.
    Io(String),
    /// The peer sent something that is not bounded, well-formed HTTP.
    Malformed(String),
    /// A line, header block or body exceeded its bound.
    TooLarge(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(m) => write!(f, "http i/o: {m}"),
            HttpError::Malformed(m) => write!(f, "malformed http: {m}"),
            HttpError::TooLarge(m) => write!(f, "http message too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_err(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// One parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target, query string included, e.g. `/jobs/7/events`.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `\n`-terminated line without the terminator (CR stripped),
/// erroring past `max` bytes instead of buffering without bound.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(io_err)?;
        if buf.is_empty() {
            // EOF: a partial line is malformed, a clean EOF is None.
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("EOF inside a line".into()))
            };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            break;
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
        if line.len() > max {
            return Err(HttpError::TooLarge(format!("line exceeds {max} bytes")));
        }
    }
    if line.len() > max {
        return Err(HttpError::TooLarge(format!("line exceeds {max} bytes")));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in a header line".into()))
}

/// Parses the header block (after the start line) into lower-cased pairs.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line_bounded(reader, MAX_LINE_BYTES)?
            .ok_or_else(|| HttpError::Malformed("EOF before the end of headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header without `:`: `{line}`"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads one request from the connection. `Ok(None)` means the peer
/// closed without sending anything (a clean keep-alive close).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    body_limit: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(start) = read_line_bounded(reader, MAX_LINE_BYTES)? else {
        return Ok(None);
    };
    let mut parts = start.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line `{start}`")));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad request line `{start}`")));
    }
    let headers = read_headers(reader)?;
    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::Malformed(
                "chunked request bodies are not accepted".into(),
            ));
        }
    }
    if let Some(length) = request.header("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length `{length}`")))?;
        if length > body_limit {
            return Err(HttpError::TooLarge(format!(
                "body of {length} bytes exceeds the {body_limit}-byte limit"
            )));
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(io_err)?;
        request.body = body;
    }
    Ok(Some(request))
}

/// The reason phrase for the status codes this API uses.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A complete (non-streaming) response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header (seconds) — set on `503`s that are
    /// deliberate (drain, capacity) rather than transient.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response (compact encoding plus a trailing newline).
    pub fn json(status: u16, value: &gdf_core::json::Json) -> Self {
        let mut body = value.to_string().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A pre-encoded JSON document (used for artifacts, which are
    /// encoded once and served verbatim so bytes stay comparable).
    pub fn json_bytes(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, message: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: message.into().into_bytes(),
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` hint (seconds).
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// An error response in the API's standard `{"error": …}` shape.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(
            status,
            &gdf_core::json::Json::Obj(vec![(
                "error".into(),
                gdf_core::json::Json::Str(message.into()),
            )]),
        )
    }

    /// Writes the full response with `Content-Length` and
    /// `Connection: close`, head and body in one write.
    pub fn write(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(160 + self.body.len());
        write!(
            frame,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        if let Some(seconds) = self.retry_after {
            write!(frame, "Retry-After: {seconds}\r\n")?;
        }
        frame.extend_from_slice(b"\r\n");
        frame.extend_from_slice(&self.body);
        stream.write_all(&frame)?;
        stream.flush()
    }
}

/// Writer half of a `Transfer-Encoding: chunked` response — the
/// transport of `GET /jobs/<id>/events`. Every [`ChunkedWriter::chunk`]
/// is flushed immediately so subscribers see events as they happen.
/// The head and each chunk are framed in one reused buffer and sent
/// with one write.
pub struct ChunkedWriter<W: Write> {
    inner: W,
    frame: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the status line and headers, switching the connection to
    /// chunked streaming.
    pub fn start(mut inner: W, status: u16, content_type: &str) -> std::io::Result<Self> {
        let mut frame = Vec::with_capacity(256);
        write!(
            frame,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            status_reason(status),
            content_type
        )?;
        inner.write_all(&frame)?;
        inner.flush()?;
        Ok(ChunkedWriter { inner, frame })
    }

    /// Sends one chunk (empty data is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        write!(self.frame, "{:x}\r\n", data.len())?;
        self.frame.extend_from_slice(data);
        self.frame.extend_from_slice(b"\r\n");
        self.inner.write_all(&self.frame)?;
        self.inner.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// A parsed response status + headers + complete body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header pairs.
    pub headers: Vec<(String, String)>,
    /// The complete (de-chunked if necessary) body.
    pub body: Vec<u8>,
}

fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, HttpError> {
    let mut last = HttpError::Io(format!("`{addr}` did not resolve"));
    for resolved in addr
        .to_socket_addrs()
        .map_err(|e| HttpError::Io(format!("resolve `{addr}`: {e}")))?
    {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
                stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
                return Ok(stream);
            }
            Err(e) => last = HttpError::Io(format!("connect {resolved}: {e}")),
        }
    }
    Err(last)
}

/// Sends a whole request with one `write_all`. A peer may answer and
/// close before it reads the request; a request written piecemeal then
/// hits `EPIPE` on a later piece and never reads the answer waiting in
/// its receive buffer.
fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    addr: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> Result<(), HttpError> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    let mut request = request.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(io_err)?;
    stream.flush().map_err(io_err)
}

fn read_status_line<R: BufRead>(reader: &mut R) -> Result<u16, HttpError> {
    let line = read_line_bounded(reader, MAX_LINE_BYTES)?
        .ok_or_else(|| HttpError::Malformed("empty response".into()))?;
    let mut parts = line.split(' ');
    match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad status line `{line}`"))),
        _ => Err(HttpError::Malformed(format!("bad status line `{line}`"))),
    }
}

/// Reads one chunk-size line + payload; `Ok(None)` on the final chunk.
fn read_chunk<R: BufRead>(reader: &mut R, limit: usize) -> Result<Option<Vec<u8>>, HttpError> {
    let line = read_line_bounded(reader, MAX_LINE_BYTES)?
        .ok_or_else(|| HttpError::Malformed("EOF inside chunked body".into()))?;
    let size_text = line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_text, 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size `{line}`")))?;
    if size > limit {
        return Err(HttpError::TooLarge(format!("chunk of {size} bytes")));
    }
    let mut data = vec![0u8; size + 2]; // payload + CRLF
    reader
        .read_exact(&mut data)
        .map_err(|e| HttpError::Io(format!("chunk body: {e}")))?;
    if &data[size..] != b"\r\n" {
        return Err(HttpError::Malformed("chunk not CRLF-terminated".into()));
    }
    data.truncate(size);
    if size == 0 {
        return Ok(None);
    }
    Ok(Some(data))
}

/// One complete client exchange: connect, send, read the whole response
/// (following chunked encoding if the server used it).
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<ClientResponse, HttpError> {
    client_request_with_headers(addr, method, path, body, timeout, &[])
}

/// [`client_request`] with extra request headers (e.g. `X-Gdf-Trace`
/// for cross-node trace propagation).
pub fn client_request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    extra_headers: &[(&str, &str)],
) -> Result<ClientResponse, HttpError> {
    let stream = connect(addr, timeout)?;
    let mut writer = stream.try_clone().map_err(io_err)?;
    let body_bytes = body.map(str::as_bytes).unwrap_or_default();
    write_request(&mut writer, method, path, addr, body_bytes, extra_headers)?;

    let mut reader = BufReader::new(stream);
    let status = read_status_line(&mut reader)?;
    let headers = read_headers(&mut reader)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader, DEFAULT_BODY_LIMIT)? {
            if body.len() + chunk.len() > DEFAULT_BODY_LIMIT {
                return Err(HttpError::TooLarge("chunked response too large".into()));
            }
            body.extend_from_slice(&chunk);
        }
    } else if let Some((_, length)) = headers.iter().find(|(k, _)| k == "content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length `{length}`")))?;
        if length > DEFAULT_BODY_LIMIT {
            return Err(HttpError::TooLarge(format!("response of {length} bytes")));
        }
        body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(io_err)?;
    } else {
        reader
            .take(DEFAULT_BODY_LIMIT as u64 + 1)
            .read_to_end(&mut body)
            .map_err(io_err)?;
        if body.len() > DEFAULT_BODY_LIMIT {
            return Err(HttpError::TooLarge("response too large".into()));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// A streaming GET: each decoded chunk is handed to `on_chunk` as it
/// arrives; returning `false` stops reading early.
///
/// Returns the status plus, for a *non-chunked* response (the server's
/// error replies come with `Content-Length`), the complete body — which
/// is then **not** passed through `on_chunk`, so stream consumers never
/// mistake an error document for stream data.
///
/// `idle_timeout` bounds how long a *silent* stream is awaited — each
/// received chunk resets the clock.
pub fn client_stream(
    addr: &str,
    path: &str,
    idle_timeout: Duration,
    mut on_chunk: impl FnMut(&[u8]) -> bool,
) -> Result<(u16, Vec<u8>), HttpError> {
    let stream = connect(addr, idle_timeout)?;
    let mut writer = stream.try_clone().map_err(io_err)?;
    write_request(&mut writer, "GET", path, addr, &[], &[])?;

    let mut reader = BufReader::new(stream);
    let status = read_status_line(&mut reader)?;
    let headers = read_headers(&mut reader)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if !chunked {
        let mut body = Vec::new();
        reader
            .take(DEFAULT_BODY_LIMIT as u64)
            .read_to_end(&mut body)
            .map_err(io_err)?;
        return Ok((status, body));
    }
    while let Some(chunk) = read_chunk(&mut reader, DEFAULT_BODY_LIMIT)? {
        if !on_chunk(&chunk) {
            break;
        }
    }
    Ok((status, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(text.as_bytes()), DEFAULT_BODY_LIMIT)
    }

    /// A writer that records each `write` call.
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_goes_out_in_one_write() {
        let mut out = Writes(Vec::new());
        write_request(&mut out, "POST", "/jobs", "h:1", b"abcd", &[("X-A", "1")]).unwrap();
        assert_eq!(out.0.len(), 1, "request split over several writes");
        let r = parse(std::str::from_utf8(&out.0[0]).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/jobs"));
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn clean_close_is_none_and_garbage_errors() {
        assert!(parse("").unwrap().is_none());
        assert!(parse("GETOUT\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nbad header\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/9\r\n\r\n").is_err());
        // Truncated body: Content-Length promises more than arrives.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nab").is_err());
    }

    #[test]
    fn oversized_inputs_are_bounded() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(matches!(parse(&long_line), Err(HttpError::TooLarge(_))));

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 2) {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(parse(&many_headers), Err(HttpError::TooLarge(_))));

        let big_body = "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(
            read_request(&mut Cursor::new(big_body.as_bytes()), 1024),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn chunked_request_bodies_are_refused() {
        assert!(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
    }

    #[test]
    fn response_and_chunk_writers_emit_valid_http() {
        let mut out = Vec::new();
        Response::text(200, "hello").write(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5"));
        assert!(text.ends_with("hello"));

        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/json").unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"").unwrap(); // skipped, must not terminate the stream
        w.chunk(b"xy").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("2\r\nxy\r\n0\r\n\r\n"));
    }

    #[test]
    fn a_response_goes_out_in_one_write() {
        for response in [
            Response::text(200, "hello"),
            Response::error(503, "draining").with_retry_after(2),
            Response::json_bytes(200, Vec::new()),
        ] {
            let mut out = Writes(Vec::new());
            response.write(&mut out).unwrap();
            assert_eq!(out.0.len(), 1, "response split over several writes");
            let mut expected = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
                response.status,
                status_reason(response.status),
                response.content_type,
                response.body.len()
            );
            if let Some(seconds) = response.retry_after {
                expected.push_str(&format!("Retry-After: {seconds}\r\n"));
            }
            expected.push_str("\r\n");
            let mut expected = expected.into_bytes();
            expected.extend_from_slice(&response.body);
            assert_eq!(out.0[0], expected);
        }
    }

    #[test]
    fn each_chunk_goes_out_in_one_write() {
        let mut out = Writes(Vec::new());
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"").unwrap();
        w.chunk(&[b'z'; 300]).unwrap();
        w.finish().unwrap();
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
        let big = format!("12c\r\n{}\r\n", "z".repeat(300));
        let expected: [&[u8]; 4] = [
            head.as_bytes(),
            b"8\r\n{\"a\":1}\n\r\n",
            big.as_bytes(),
            b"0\r\n\r\n",
        ];
        assert_eq!(
            out.0, expected,
            "one write for the head, each chunk and the end"
        );
    }

    #[test]
    fn chunk_reader_round_trips() {
        let wire = b"3\r\nabc\r\n1\r\nz\r\n0\r\n\r\n";
        let mut reader = Cursor::new(&wire[..]);
        assert_eq!(read_chunk(&mut reader, 1024).unwrap().unwrap(), b"abc");
        assert_eq!(read_chunk(&mut reader, 1024).unwrap().unwrap(), b"z");
        assert!(read_chunk(&mut reader, 1024).unwrap().is_none());
    }
}
