//! A small blocking client for a `sitw-serve` node or a `sitw-router`:
//! one keep-alive connection speaking both wire protocols, built only
//! from [`write_request`], the [`crate::wire`] encoders and
//! [`ConnBuf::read_reply`] — the code the router and follower read
//! node replies with. Tools and tests use it instead of
//! framing responses by hand.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

use crate::http::{write_request, ConnBuf, Reply};
use crate::wire::json_escape;

/// A blocking keep-alive connection to a daemon.
pub struct Client {
    conn: ConnBuf,
    out: Vec<u8>,
}

impl Client {
    /// Connects (Nagle off: every call here is one small round trip).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: ConnBuf::new(stream),
            out: Vec::new(),
        })
    }

    /// The read half: [`ConnBuf::read_reply`] for the unmapped event
    /// (`Timeout`, `Eof`), [`ConnBuf::reply_raw`] for the last reply's
    /// exact bytes, [`ConnBuf::stream`] to set deadlines.
    pub fn conn(&mut self) -> &mut ConnBuf {
        &mut self.conn
    }

    /// Writes raw bytes: a pipelined burst, or input that is malformed
    /// on purpose. Replies are read with [`Client::recv`].
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.stream().write_all(bytes)
    }

    /// Reads the next reply, whatever its kind.
    pub fn recv(&mut self) -> io::Result<Reply> {
        self.conn.read_reply()?.owed()
    }

    /// Reads the next reply as an HTTP response: `(status, body)`.
    pub fn response(&mut self) -> io::Result<(u16, String)> {
        let reply = self.recv()?;
        self.text(reply)
    }

    fn text(&self, reply: Reply) -> io::Result<(u16, String)> {
        let body = String::from_utf8_lossy(self.conn.reply_body()).into_owned();
        Ok((reply.status()?, body))
    }

    /// One HTTP exchange: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let reply = self.batch(|out| write_request(out, method, path, None, body.as_bytes()))?;
        self.text(reply)
    }

    /// `POST /invoke` for `app` at trace time `ts`, optionally naming a
    /// tenant and carrying a propagated `x-sitw-trace` id.
    pub fn invoke(
        &mut self,
        tenant: Option<&str>,
        app: &str,
        ts: u64,
        trace: Option<u64>,
    ) -> io::Result<(u16, String)> {
        let tenant = tenant.map_or(String::new(), |t| {
            format!("\"tenant\":\"{}\",", json_escape(t))
        });
        let body = format!("{{{tenant}\"app\":\"{}\",\"ts\":{ts}}}", json_escape(app));
        let reply =
            self.batch(|out| write_request(out, "POST", "/invoke", trace, body.as_bytes()))?;
        self.text(reply)
    }

    /// Sends the one request `encode` writes and reads the reply to it.
    /// For a SITW-BIN frame — any [`crate::wire`] request encoder,
    /// traced or not — that is a reply frame ([`Reply::records`] unwraps
    /// it) or a typed error frame; its raw bytes are
    /// `conn().reply_raw()`.
    pub fn batch<T>(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> T) -> io::Result<Reply> {
        self.out.clear();
        encode(&mut self.out);
        self.conn.stream().write_all(&self.out)?;
        self.recv()
    }
}
