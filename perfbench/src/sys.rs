//! Child processes and `/proc` readings: CPU time, peak RSS and the host
//! fingerprint.
//!
//! Every `cgte` child is owned by a guard that kills and reaps it on drop,
//! so no error path of the benchmark leaves a process behind.

use cgte_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linux reports `/proc/*/stat` times in `USER_HZ` ticks, fixed at 100 on
/// every architecture the kernel exposes to user space.
const TICKS_PER_SEC: f64 = 100.0;

fn stat_fields(path: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &text[text.rfind(')')? + 2..];
    Some(
        rest.split_whitespace()
            .skip(1) // state
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User + system CPU seconds of process `pid` (all its threads).
pub fn cpu_secs(pid: u32) -> Option<f64> {
    let f = stat_fields(&format!("/proc/{pid}/stat"))?;
    // utime, stime are fields 14 and 15 of stat(5); index 0 here is ppid.
    Some((f[10] + f[11]) as f64 / TICKS_PER_SEC)
}

/// User + system CPU seconds of this process.
pub fn self_cpu_secs() -> f64 {
    cpu_secs(std::process::id()).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kills and reaps a child that is still running.
fn reap(child: &mut Child) {
    if let Ok(None) = child.try_wait() {
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// Waits up to `limit` for `child` to exit; kills it past the limit.
/// Returns whether it exited on its own.
fn wait_or_kill(child: &mut Child, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    reap(child);
    false
}

/// A running `cgte serve` child.
pub struct Server {
    child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawns `cgte serve` on an ephemeral port over `store` and waits
    /// until it listens.
    pub fn spawn(cgte: &Path, store: &Path, threads: usize) -> Result<Server, String> {
        let mut child = Command::new(cgte)
            .arg("serve")
            .arg("--cache-dir")
            .arg(store)
            .args(["--port", "0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {cgte:?}: {e}"))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the child's whole life so the pipe never fills.
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().expect("valid placeholder"),
            stderr: Some(stderr),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                Ok(server)
            }
            Err(_) => {
                let log = server.stop_log();
                Err(format!("cgte serve did not start: {}", log.join(" | ")))
            }
        }
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server through `POST /shutdown`, killing it if it has not
    /// exited within a few seconds (a worker stuck on a long request must
    /// not outlive the run). Returns its stderr lines.
    pub fn shutdown(mut self) -> Vec<String> {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = c.request("POST", "/shutdown", "");
        }
        wait_or_kill(&mut self.child, Duration::from_secs(10));
        self.stop_log()
    }

    fn stop_log(&mut self) -> Vec<String> {
        reap(&mut self.child);
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_log();
    }
}

/// What one finished `cgte run` took.
pub struct RunCost {
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// The child's stderr.
    pub stderr: String,
}

/// Runs `cgte` with `args` to completion (killed past `limit`), timing it.
/// Fails if it does not exit with 0.
pub fn run_cgte(cgte: &Path, args: &[String], limit: Duration) -> Result<RunCost, String> {
    let start = Instant::now();
    let mut child = Command::new(cgte)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cgte:?}: {e}"))?;
    let pipe = child.stderr.take().expect("stderr is piped");
    let drain = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = std::io::Read::read_to_string(&mut BufReader::new(pipe), &mut s);
        s
    });
    let exited = wait_or_kill(&mut child, limit);
    let wall_s = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    let stderr = drain.join().unwrap_or_default();
    match (exited, status.success()) {
        (true, true) => Ok(RunCost { wall_s, stderr }),
        (true, false) => Err(format!(
            "cgte {} failed ({status}): {stderr}",
            args.join(" ")
        )),
        (false, _) => Err(format!("cgte {} killed after {limit:?}", args.join(" "))),
    }
}

/// Host fingerprint: core count, CPU model, kernel and cache sizes.
pub fn host_json() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("unknown")
        .trim()
        .to_string();
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let size = read(&format!("{dir}/size"));
        if size.is_empty() {
            break;
        }
        caches.push(format!(
            "{{\"level\":{},\"type\":{},\"size\":{}}}",
            read(&format!("{dir}/level")).trim(),
            crate::report::quote(read(&format!("{dir}/type")).trim()),
            crate::report::quote(size.trim()),
        ));
    }
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"caches\":[{}]}}",
        nproc(),
        crate::report::quote(&model),
        crate::report::quote(read("/proc/sys/kernel/osrelease").trim()),
        caches.join(",")
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
