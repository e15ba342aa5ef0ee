//! Child-process backend fleets: spawning, killing and respawning
//! `raysearchd` processes behind a port-file handshake.
//!
//! Each backend binds an ephemeral port and writes its bound address
//! to a per-backend port file (`raysearchd --port-file`). The router
//! reads addresses *through* those files on every health pass, so a
//! backend respawned on a new port — SIGKILL leaves the old port in
//! `TIME_WAIT`, so same-port rebinding is exactly the flaky thing this
//! design avoids — is rediscovered under its stable logical id without
//! any reconfiguration, and rendezvous routing never reshuffles.
//!
//! Each child's stdin is a pipe whose write end only the fleet holds,
//! and `raysearchd` exits when a piped stdin closes. So the children
//! die with the process that owns the fleet however it ends: `Drop`
//! kills them on an orderly exit, and on SIGKILL the kernel closes the
//! pipes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::route::BackendSpec;

/// Locates the `raysearchd` binary for spawning backends: the
/// `RAYSEARCHD_BIN` environment variable if set, else a sibling of the
/// current executable (which is where cargo puts workspace binaries).
///
/// # Errors
///
/// Returns a message naming both strategies when neither works.
pub fn raysearchd_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("RAYSEARCHD_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!("RAYSEARCHD_BIN={} does not exist", path.display()));
    }
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("raysearchd")))
        .filter(|p| p.is_file());
    sibling.ok_or_else(|| {
        "cannot find the raysearchd binary: set RAYSEARCHD_BIN or build the raysearchd bin target"
            .to_owned()
    })
}

/// One spawned backend process.
#[derive(Debug)]
struct ChildBackend {
    id: String,
    port_file: PathBuf,
    child: Option<Child>,
}

/// A fleet of `raysearchd` child processes on ephemeral ports.
///
/// Dropping the fleet kills and reaps every child.
#[derive(Debug)]
pub struct BackendFleet {
    bin: PathBuf,
    extra_args: Vec<String>,
    children: Vec<ChildBackend>,
}

impl BackendFleet {
    /// Spawns `n` backends using the `raysearchd` binary at `bin`,
    /// parking their port files in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns a message on directory or spawn failure (already-spawned
    /// children are cleaned up by `Drop`).
    pub fn spawn(bin: &Path, n: usize, dir: &Path) -> Result<BackendFleet, String> {
        BackendFleet::spawn_with_args(bin, n, dir, &[])
    }

    /// Like [`BackendFleet::spawn`] but passes `extra_args` to every
    /// child (and to [respawns](BackendFleet::respawn)) — how the
    /// router CLI forwards `--slow-log-micros` / `--trace-sample` to
    /// the backends it owns.
    ///
    /// # Errors
    ///
    /// Returns a message on directory or spawn failure (already-spawned
    /// children are cleaned up by `Drop`).
    pub fn spawn_with_args(
        bin: &Path,
        n: usize,
        dir: &Path,
        extra_args: &[String],
    ) -> Result<BackendFleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let mut fleet = BackendFleet {
            bin: bin.to_owned(),
            extra_args: extra_args.to_vec(),
            children: Vec::with_capacity(n),
        };
        for i in 0..n {
            let id = format!("backend-{i}");
            let port_file = dir.join(format!("{id}.port"));
            let child = spawn_backend(bin, &port_file, extra_args, i)?;
            fleet.children.push(ChildBackend {
                id,
                port_file,
                child: Some(child),
            });
        }
        Ok(fleet)
    }

    /// Number of configured backends (dead or alive).
    #[must_use]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the fleet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The router-side view of this fleet: one port-file-sourced
    /// [`BackendSpec`] per child, under stable logical ids.
    #[must_use]
    pub fn specs(&self) -> Vec<BackendSpec> {
        self.children
            .iter()
            .map(|c| BackendSpec::port_file(&c.id, c.port_file.clone()))
            .collect()
    }

    /// Blocks until every backend has written its port file (so the
    /// fleet is accepting connections), returning the bound addresses
    /// in backend order.
    ///
    /// # Errors
    ///
    /// Returns a message if any backend misses the `timeout`.
    pub fn wait_ready(&self, timeout: Duration) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + timeout;
        let mut addrs = Vec::with_capacity(self.children.len());
        for child in &self.children {
            loop {
                let read = std::fs::read_to_string(&child.port_file)
                    .ok()
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty());
                if let Some(addr) = read {
                    addrs.push(addr);
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "backend {} did not write {} within {timeout:?}",
                        child.id,
                        child.port_file.display()
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        Ok(addrs)
    }

    /// SIGKILLs backend `idx` and reaps it. The port file is left in
    /// place deliberately: a real crash leaves stale state behind, and
    /// the router must cope (the health check fails, not the read).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn kill(&mut self, idx: usize) {
        if let Some(mut child) = self.children[idx].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Respawns backend `idx` under its original id. The stale port
    /// file is removed first so `wait_ready` / the router's health pass
    /// cannot read the dead process's address as fresh.
    ///
    /// # Errors
    ///
    /// Returns a message on spawn failure.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn respawn(&mut self, idx: usize) -> Result<(), String> {
        self.kill(idx);
        let port_file = self.children[idx].port_file.clone();
        std::fs::remove_file(&port_file).ok();
        self.children[idx].child =
            Some(spawn_backend(&self.bin, &port_file, &self.extra_args, idx)?);
        Ok(())
    }
}

impl Drop for BackendFleet {
    fn drop(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

fn spawn_backend(
    bin: &Path,
    port_file: &Path,
    extra_args: &[String],
    node: usize,
) -> Result<Child, String> {
    // a stale file from a previous life must not be mistaken for this
    // spawn's handshake
    std::fs::remove_file(port_file).ok();
    Command::new(bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(port_file)
        // the fleet index doubles as the job-id node tag, so the router
        // can route GET/DELETE /jobs/{id} straight to the minting
        // backend; stable across respawns like the logical id itself
        .arg("--job-node")
        .arg(node.to_string())
        .args(extra_args)
        // the write end stays in the returned `Child`: closing it (the
        // fleet dropping the child, or this process dying) ends the
        // backend
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_lookup_respects_the_env_override() {
        // no env manipulation (tests run concurrently); just check that
        // the sibling fallback produces a sensible error or a real file
        match raysearchd_bin() {
            Ok(path) => assert!(path.is_file()),
            Err(msg) => assert!(msg.contains("raysearchd")),
        }
    }
}
