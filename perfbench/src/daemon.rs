//! `cts-daemon` as a separate process: spawn through its CLI, wait until it
//! answers, read its peak RSS, SIGKILL it.

use cts_daemon::wire::{self, code, read_msg, write_msg, Msg};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to come up (recovery included).
const START_TIMEOUT: Duration = Duration::from_secs(120);

pub struct DaemonProc {
    child: Child,
    pub addr: SocketAddr,
}

impl DaemonProc {
    /// Start `bin args.. --port 0 --port-file <dir>/<tag>.port` (stderr to
    /// `<dir>/<tag>.log`) and wait until a `ProtoHello` is answered with
    /// anything but `RECOVERING`. Returns the process and the time from
    /// spawn to that answer.
    pub fn start(
        bin: &Path,
        args: &[String],
        dir: &Path,
        tag: &str,
    ) -> io::Result<(DaemonProc, Duration)> {
        let port_file = dir.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{tag}.log")))?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .arg("--port")
            .arg("0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        // From here on the guard kills the child on every error path.
        let mut d = DaemonProc {
            child,
            addr: "127.0.0.1:0".parse().expect("static addr"),
        };
        let port = loop {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                break p;
            }
            d.check_alive(t0)?;
            std::thread::sleep(Duration::from_micros(100));
        };
        d.addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut stream = TcpStream::connect(d.addr)?;
        stream.set_nodelay(true)?;
        loop {
            match proto_hello(&mut stream)? {
                Msg::ProtoHelloAck { .. } => return Ok((d, t0.elapsed())),
                Msg::Error { code: c, .. } if c == code::RECOVERING => {
                    d.check_alive(t0)?;
                    std::thread::sleep(Duration::from_micros(500));
                }
                other => {
                    return Err(io::Error::other(format!(
                        "ProtoHello answered with {other:?}"
                    )))
                }
            }
        }
    }

    fn check_alive(&mut self, t0: Instant) -> io::Result<()> {
        if let Some(status) = self.child.try_wait()? {
            return Err(io::Error::other(format!(
                "cts-daemon exited early: {status}"
            )));
        }
        if t0.elapsed() > START_TIMEOUT {
            return Err(io::Error::other("cts-daemon did not come up in time"));
        }
        Ok(())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SIGKILL and reap.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Already reaped after `kill`; otherwise make sure nothing outlives
        // the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One raw `ProtoHello` round trip (the typed client cannot tell
/// `RECOVERING` apart from other errors).
fn proto_hello(stream: &mut TcpStream) -> io::Result<Msg> {
    write_msg(
        stream,
        &Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        },
    )?;
    read_msg(stream)?.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    Ok(total)
}
