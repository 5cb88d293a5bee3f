//! The benchmark's load-generating HTTP client: one keep-alive HTTP/1.1
//! connection per client thread, `Content-Length` framing both ways.
//!
//! The shipped `gbd_serve::client::request` opens a connection per request;
//! it is measured only as `serve.server.connect_ns`.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits on the socket. Above the 2 s failure limit of
/// `mixed_rw` so that a stalled write is counted as late, not as an I/O
/// error, and far below the harness's own time limit.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(20);

/// Why a request could not be completed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading failed (timeouts included).
    Io(io::Error),
    /// The server closed the connection before a full response arrived.
    Closed,
    /// The response does not follow the framing the server promises.
    Malformed(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Closed => write!(f, "connection closed mid-response"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ClientError::Closed
        } else {
            ClientError::Io(e)
        }
    }
}

/// Renders a complete keep-alive request (head + body) once, so the timed
/// loop only writes bytes.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: gbd-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Connection {
    /// Connects with `TCP_NODELAY` and the socket timeouts set.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
            body: Vec::new(),
        })
    }

    /// Sends one pre-rendered request and reads the response; returns the
    /// status and the body (valid until the next call).
    pub fn round_trip(&mut self, request: &[u8]) -> Result<(u16, &[u8]), ClientError> {
        self.writer.write_all(request)?;

        self.read_line()?;
        let status = std::str::from_utf8(&self.line)
            .ok()
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or(ClientError::Malformed("no status code in the status line"))?;

        let mut content_length = None;
        loop {
            self.read_line()?;
            if self.line.is_empty() {
                break;
            }
            let header = std::str::from_utf8(&self.line)
                .map_err(|_| ClientError::Malformed("non-UTF-8 header"))?;
            let (name, value) = header
                .split_once(':')
                .ok_or(ClientError::Malformed("header line without a colon"))?;
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ClientError::Malformed("unparsable content-length"))?,
                );
            }
        }
        let length = content_length.ok_or(ClientError::Malformed("no content-length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok((status, &self.body))
    }

    /// Reads one CRLF-terminated line into `self.line`, terminator removed.
    fn read_line(&mut self) -> Result<(), ClientError> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(ClientError::Closed);
        }
        if self.line.pop() != Some(b'\n') {
            return Err(ClientError::Closed);
        }
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A canned server: answers every connection with `responses` in order,
    /// one per request head it reads, then closes.
    fn canned(responses: Vec<&'static str>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for response in responses {
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                    line.clear();
                }
                writer.write_all(response.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn keeps_the_connection_alive_across_requests() {
        let addr = canned(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nab",
            "HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
        ]);
        let mut connection = Connection::connect(addr).unwrap();
        let request = render_request("GET", "/x", "");
        let (status, body) = connection.round_trip(&request).unwrap();
        assert_eq!((status, body), (200, &b"ab"[..]));
        let (status, body) = connection.round_trip(&request).unwrap();
        assert_eq!((status, body.len()), (404, 0));
        assert!(matches!(
            connection.round_trip(&request),
            Err(ClientError::Closed | ClientError::Io(_))
        ));
    }

    #[test]
    fn framing_violations_are_typed_errors() {
        let addr = canned(vec!["HTTP/1.1 200 OK\r\n\r\n"]);
        let mut connection = Connection::connect(addr).unwrap();
        assert!(matches!(
            connection.round_trip(&render_request("GET", "/", "")),
            Err(ClientError::Malformed("no content-length"))
        ));

        let addr = canned(vec!["garbage\r\n\r\n"]);
        let mut connection = Connection::connect(addr).unwrap();
        assert!(matches!(
            connection.round_trip(&render_request("GET", "/", "")),
            Err(ClientError::Malformed(_))
        ));

        let addr = canned(vec!["HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc"]);
        let mut connection = Connection::connect(addr).unwrap();
        assert!(matches!(
            connection.round_trip(&render_request("GET", "/", "")),
            Err(ClientError::Closed)
        ));
    }

    #[test]
    fn rendered_requests_carry_the_body_length() {
        let request = render_request("POST", "/search", "{\"k\": 1}");
        let text = String::from_utf8(request).unwrap();
        assert!(text.starts_with("POST /search HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 8\r\n\r\n{\"k\": 1}"));
        assert!(!text.to_ascii_lowercase().contains("connection: close"));
    }
}
