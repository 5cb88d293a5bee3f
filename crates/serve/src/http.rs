//! A hand-rolled HTTP/1.1 subset: exactly what the serving layer needs
//! (request line + headers + `Content-Length` bodies in; fixed-length
//! responses out), dependency-free and defensive.
//!
//! The parser is strict about the framing it supports and returns a typed
//! [`HttpError`] on anything else — an unsupported transfer encoding,
//! oversized headers or bodies, a malformed request line. The server maps
//! those to `400`/`413`/`505` responses instead of tearing the connection
//! down silently. Keep-alive is honored (HTTP/1.1 default) until the peer
//! asks for `Connection: close`, EOF, or a read timeout.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on the header block (request line included).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub(crate) const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parse-level failure with the response status it should produce.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// An I/O error (including read timeouts) on the socket.
    Io(io::Error),
    /// A malformed or unsupported request; carries status + message.
    Bad(u16, &'static str),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request: method, path (query string included, the API layer
/// does not use one), whether the peer asked to close, and the body.
#[derive(Debug)]
pub struct Request {
    /// The request method, uppercased by the peer per HTTP (`GET`, `POST`).
    pub method: String,
    /// The request target, e.g. `/search`.
    pub path: String,
    /// `true` when the peer sent `Connection: close`.
    pub close: bool,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads one request off `stream`.
///
/// # Errors
/// [`HttpError::ConnectionClosed`] on EOF before the first byte,
/// [`HttpError::Bad`] on malformed/unsupported framing, [`HttpError::Io`]
/// on socket errors (timeouts included).
pub fn read_request<S: BufRead>(stream: &mut S) -> Result<Request, HttpError> {
    let request_line = read_line(stream, true)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Bad(400, "empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or(HttpError::Bad(400, "request line has no target"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or(HttpError::Bad(400, "request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(505, "only HTTP/1.x is supported"));
    }

    let mut content_length: Option<usize> = None;
    let mut close = version == "HTTP/1.0";
    let mut header_bytes = request_line.len();
    loop {
        let line = read_line(stream, false)?;
        header_bytes += line.len() + 2;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::Bad(431, "header block too large"));
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(400, "malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` only: `usize::from_str` would also take a `+` sign.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Bad(400, "unparsable content-length"));
            }
            let length = value
                .parse::<usize>()
                .map_err(|_| HttpError::Bad(400, "unparsable content-length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(HttpError::Bad(400, "conflicting content-length headers"));
            }
            if length > MAX_BODY_BYTES {
                return Err(HttpError::Bad(413, "request body too large"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Bad(501, "transfer encodings are not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    stream.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Bad(400, "body shorter than content-length")
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(Request {
        method,
        path,
        close,
        body,
    })
}

/// Reads one CRLF-terminated line (the LF alone is tolerated). EOF before
/// any byte of the *first* line is a clean [`HttpError::ConnectionClosed`].
fn read_line<S: BufRead>(stream: &mut S, first: bool) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let mut take = stream.take(MAX_HEADER_BYTES as u64 + 1);
    let read = take.read_until(b'\n', &mut line)?;
    if read == 0 {
        if first {
            return Err(HttpError::ConnectionClosed);
        }
        return Err(HttpError::Bad(400, "connection closed mid-request"));
    }
    if line.len() > MAX_HEADER_BYTES {
        return Err(HttpError::Bad(431, "header line too large"));
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    String::from_utf8(line).map_err(|_| HttpError::Bad(400, "non-UTF-8 header bytes"))
}

/// One response: status, content type and a fixed-length body.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body (its length becomes `Content-Length`).
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// The canonical JSON error body `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        let escaped: String = message
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect();
        Response::json(status, format!("{{\"error\": \"{escaped}\"}}"))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes `response` (with `Connection: close` when `close`), flushing.
///
/// # Errors
/// Propagates socket write errors (timeouts included).
pub fn write_response<S: Write>(
    stream: &mut S,
    response: &Response,
    close: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let request =
            parse("POST /insert HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/insert");
        assert_eq!(request.body, b"abcd");
        assert!(!request.close);
    }

    #[test]
    fn parses_a_get_and_connection_close() {
        let request = parse("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.close);
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_bad_framing_with_typed_statuses() {
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(HttpError::Bad(400, _))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Bad(505, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Bad(501, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nine\r\n\r\n"),
            Err(HttpError::Bad(400, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Bad(400, _))
        ));
        // A sign is not `1*DIGIT`, even though `usize::from_str` takes it.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nabcde"),
            Err(HttpError::Bad(400, _))
        ));
        // Differing duplicates are rejected instead of the last one winning.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nabcde"),
            Err(HttpError::Bad(400, _))
        ));
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
                .unwrap()
                .body,
            b"abc"
        );
    }

    #[test]
    fn responses_carry_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
