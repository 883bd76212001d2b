//! The `tornado serve` child process: start, health wait, memory peak,
//! SIGTERM drain.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tornado_server::Client;

const START_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `tornado serve --catalog 1` with its default settings on an
    /// ephemeral port; with `data_dir`, on the segment backend (fsync on,
    /// the `--data-dir` default). Returns once the port is published.
    pub fn start(bin: &Path, work: &Path, data_dir: Option<&Path>) -> Result<Self, String> {
        let port_file = work.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join("server.log"))
            .map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--catalog",
            "1",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
        ])
        .arg(&port_file);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir")
                .arg(dir)
                .args(["--backend", "segment"]);
        }
        let stderr = log.try_clone().map_err(|e| format!("server log: {e}"))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("addr"),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    return Ok(server);
                }
            }
            if let Some(status) = server.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited during start-up: {status}"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("server did not publish its port".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("server child is present until drained")
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Polls HEALTH until it reports `offline` devices offline. A HEALTH
    /// request recomputes a stale document, so once it answers, the
    /// server's event-driven recompute for these failures is done.
    pub fn wait_offline(client: &mut Client, offline: u64) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            let text = client.health().map_err(|e| format!("HEALTH: {e}"))?;
            let doc = tornado_obs::json::parse(&text).map_err(|e| format!("HEALTH json: {e}"))?;
            let seen = doc
                .get("fleet")
                .and_then(|f| f.get("offline"))
                .and_then(|v| v.as_u64());
            if seen == Some(offline) {
                return Ok(());
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(format!(
                    "HEALTH shows {seen:?} devices offline, expected {offline}"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The server's peak resident set (VmHWM), MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("server child").id();
        vm_hwm_mb(&pid.to_string())
    }

    /// SIGTERM, then waits for the graceful drain to finish. On an error
    /// the child is killed and reaped when `self` drops.
    pub fn drain(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child_mut().id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child, which
        // has not been reaped yet (we still hold its `Child`), so the id
        // cannot have been reused by another process.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("SIGTERM to the server failed".into());
        }
        let t0 = Instant::now();
        loop {
            match self.child_mut().try_wait().map_err(|e| e.to_string())? {
                Some(status) => {
                    self.child = None;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server drained with {status}"))
                    };
                }
                None if t0.elapsed() > DRAIN_TIMEOUT => {
                    return Err("server did not drain after SIGTERM".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The peak resident set (VmHWM) of process `pid` (a number or `self`),
/// MiB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// A scratch directory that is emptied on creation and removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
