//! Shared harness for the cluster integration tests: node spawning, a
//! one-shot HTTP helper, and a scriptable fake node. The protocol
//! clients are `sitw_serve::Client` — the tests speak to routers and
//! nodes through the same reader the router speaks to nodes with.

// Each integration-test crate compiles its own copy; not every crate
// uses every helper.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use sitw_core::PolicySpec;
use sitw_serve::http::Reply;
use sitw_serve::wire::BinReply;
use sitw_serve::{ServeConfig, Server, TenantConfig};

/// Starts one bare node: no tenants (the router provisions them), the
/// fixed 10-minute default policy, an ephemeral port.
pub fn start_node() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        tenants: Vec::<TenantConfig>::new(),
        ..ServeConfig::default()
    })
    .expect("node starts")
}

/// One-shot HTTP request on a fresh connection; returns `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let wait = Duration::from_secs(10);
    sitw_serve::http::call(addr, method, path, body.as_bytes(), wait, wait).expect("http call")
}

/// The verdicts of the reply frame a `Client::batch` got back.
pub fn records(reply: std::io::Result<Reply>) -> Vec<BinReply> {
    reply.and_then(Reply::records).expect("reply frame")
}

/// A fake node: answers the router's provisioning request
/// (`GET /admin/tenants`) like an empty node, and hands every other
/// connection — with the first bytes the router sent on it — to
/// `misbehave`, which plays the confused, hung or hostile upstream.
pub fn start_fake_node(misbehave: fn(TcpStream, &[u8])) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake node");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            thread::spawn(move || {
                let mut chunk = [0u8; 4096];
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                if chunk[..n].starts_with(b"GET /admin/tenants") {
                    let body = r#"[{"id":0,"name":"default","policy":"-","budget_mb":0}]"#;
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let _ = stream.write_all(resp.as_bytes());
                } else {
                    misbehave(stream, &chunk[..n]);
                }
            });
        }
    });
    addr
}
