//! The programs under test as child processes: the repo's real
//! `sitw-serve` and `sitw-router` release binaries, spawned on ephemeral
//! ports, watched by deadlines, and killed (and their scratch directory
//! removed) on every exit path.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// How long a process may take to print its listen address or answer
/// its readiness probe before the run gives up on it.
pub const READY_DEADLINE: Duration = Duration::from_secs(30);
/// Control-plane request deadline.
pub const HTTP_DEADLINE: Duration = Duration::from_secs(20);
/// Grace between `POST /admin/shutdown` and `SIGKILL`.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// A scratch directory inside the checkout (`benchmark/out/tmp-*`),
/// removed when dropped.
pub struct Workdir {
    path: PathBuf,
}

impl Workdir {
    /// Creates a fresh scratch directory under `out_dir`.
    pub fn create(out_dir: &Path) -> io::Result<Workdir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = out_dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path)?;
        Ok(Workdir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Where the release binaries live: next to this executable, which the
/// same `cargo build --release` invocation produced.
pub fn bin_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::other("executable has no parent directory"))
}

/// Refuses to measure anything but optimised builds: this binary must
/// have been compiled without debug assertions, and the programs under
/// test must sit beside it in a `release` profile directory.
pub fn require_release_build() -> io::Result<()> {
    if cfg!(debug_assertions) {
        return Err(io::Error::other(
            "refusing to measure a debug build: run `benchmark/run`, which builds --release",
        ));
    }
    let dir = bin_dir()?;
    if dir.file_name().and_then(|n| n.to_str()) != Some("release") {
        return Err(io::Error::other(format!(
            "refusing to measure binaries outside a release profile directory: {}",
            dir.display()
        )));
    }
    for bin in ["sitw-serve", "sitw-router"] {
        if !dir.join(bin).is_file() {
            return Err(io::Error::other(format!(
                "{bin} not found in {} (build with `benchmark/run`)",
                dir.display()
            )));
        }
    }
    Ok(())
}

/// One running program under test. Dropping it kills the process and
/// waits for it, so no exit path leaks a child.
pub struct Proc {
    /// Role label for messages (`node0`, `router`, `standby`).
    pub role: String,
    /// The address it serves (control address for a standby).
    pub addr: SocketAddr,
    child: Child,
}

impl Proc {
    /// Spawns `bin` with `args`, logging to `<workdir>/<role>.log`, and
    /// waits for the line announcing its bound address: the text after
    /// `marker` up to the next space.
    pub fn spawn(
        bin: &str,
        role: &str,
        args: &[String],
        marker: &str,
        workdir: &Workdir,
    ) -> io::Result<Proc> {
        let log_path = workdir.path().join(format!("{role}.log"));
        let log = File::create(&log_path)?;
        let child = Command::new(bin_dir()?.join(bin))
            .args(args)
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        // From here on the child is owned by a `Proc`, so an early
        // return below still kills it.
        let mut proc = Proc {
            role: role.to_owned(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
        };
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            let text = fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(addr) = text
                .split_once(marker)
                .and_then(|(_, rest)| rest.split_ascii_whitespace().next())
                .and_then(|a| a.parse().ok())
            {
                proc.addr = addr;
                return Ok(proc);
            }
            if let Some(status) = proc.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{role} exited before listening ({status}): {}",
                    text.trim()
                )));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{role} did not announce an address in {READY_DEADLINE:?}"),
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET path` until `ready` accepts the body.
    pub fn wait_ready(&self, path: &str, ready: impl Fn(&str) -> bool) -> io::Result<()> {
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            if let Ok((200, body)) = http(self.addr, "GET", path, b"") {
                if ready(&body) {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} not ready on {path} in {READY_DEADLINE:?}", self.role),
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Asks the process to stop and waits for it; a process that does
    /// not exit within the grace period is killed. Returns whether the
    /// shutdown was graceful.
    pub fn shutdown(mut self) -> bool {
        let asked = http(self.addr, "POST", "/admin/shutdown", b"").is_ok();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while asked && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false // Drop kills and reaps.
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-shot HTTP exchange (`connection: close`) with deadlines on
/// connect, write and read; returns `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, HTTP_DEADLINE)?;
    stream.set_read_timeout(Some(HTTP_DEADLINE))?;
    stream.set_write_timeout(Some(HTTP_DEADLINE))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response = String::from_utf8_lossy(&response);
    let status = response
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// The first unsigned integer following `"key":` in a JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}
