//! The service worker loop: lease → heartbeat → execute → result.
//!
//! Both worker transports run this one loop ([`serve`]): framed stdio
//! in a coordinator-spawned process ([`StdioLink`]) and the
//! self-healing TCP client ([`TcpLink`], over [`Remote`]). The unit
//! executor is a closure, so building protocols from a unit's system
//! description stays with the caller.
//!
//! While a unit executes, a background thread heartbeats its lease.
//! The first beat goes out before execution starts, so the lease is
//! live before the first run finishes. Between beats the thread waits
//! on a stop channel with the period as its timeout, and the loop drops
//! the channel the moment the unit finishes, so the result is sent at
//! once. The heartbeat period bounds how fast the coordinator notices
//! a dead worker; it is not a floor on how long a unit takes.

use crate::service::merge::ShardResult;
use crate::service::proto::{read_frame, write_frame, CoordMsg, WorkerMsg};
use crate::service::transport::{Remote, RemoteError};
use crate::service::unit::WorkUnit;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// A worker's link to its coordinator.
///
/// `recv` runs only on the loop's thread; `send` also runs on the
/// heartbeat thread while a unit executes, hence `&self` and `Sync`.
pub trait WorkerLink: Sync {
    /// Blocks for the next coordinator message. `Ok(None)` means the
    /// coordinator went away and the worker should end cleanly.
    ///
    /// # Errors
    ///
    /// A message the worker cannot act on, or a link that cannot be
    /// (re)established.
    fn recv(&mut self) -> Result<Option<CoordMsg>, String>;

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// The link is closed or cannot be reestablished.
    fn send(&self, payload: &str) -> Result<(), String>;
}

/// Serves leases from `link` until the coordinator says shutdown or
/// goes away: heartbeat each leased unit, run it through `execute`
/// (unit, state directory, corpus directory), and send its shard back.
///
/// # Errors
///
/// A link error from [`WorkerLink::recv`], a unit `execute` fails (the
/// coordinator's lease machinery requeues it once the worker exits),
/// or a result that cannot be sent.
pub fn serve<L, E>(link: &mut L, mut execute: E) -> Result<(), String>
where
    L: WorkerLink,
    E: FnMut(&WorkUnit, &Path, &Path) -> Result<ShardResult, String>,
{
    while let Some(msg) = link.recv()? {
        let (unit, state_dir, corpus_dir, heartbeat_ms) = match msg {
            CoordMsg::Shutdown => break,
            CoordMsg::Lease { unit, state_dir, corpus_dir, heartbeat_ms } => {
                (unit, state_dir, corpus_dir, heartbeat_ms)
            }
            // Handshake frames carry no work; tolerate strays.
            CoordMsg::Welcome { .. } | CoordMsg::Reject { .. } => continue,
        };
        let period = Duration::from_millis(heartbeat_ms.max(1));
        let shard = heartbeating(&*link, unit.id, period, || {
            execute(&unit, Path::new(&state_dir), Path::new(&corpus_dir))
        })
        .map_err(|e| format!("unit {}: {e}", unit.id))?;
        link.send(&WorkerMsg::Result { unit: unit.id, shard }.to_json())
            .map_err(|e| format!("cannot send result: {e}"))?;
    }
    Ok(())
}

/// Runs `work` while heartbeating `unit` over `link` every `period`.
/// The first beat is sent before `work` starts; the beat thread stops
/// as soon as `work` returns (or unwinds), without finishing its wait.
fn heartbeating<L: WorkerLink, T>(
    link: &L,
    unit: u64,
    period: Duration,
    work: impl FnOnce() -> T,
) -> T {
    let beat = WorkerMsg::Heartbeat { unit }.to_json();
    if link.send(&beat).is_err() {
        // A closed link: the coordinator died or revoked the lease.
        // Executing to completion is still useful (the checkpoint
        // survives), and the result send will surface the failure.
        return work();
    }
    std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel::<()>();
        scope.spawn(move || {
            // Dropping `stop` disconnects the channel, which ends the
            // wait at once.
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                if link.send(&beat).is_err() {
                    break;
                }
            }
        });
        let out = work();
        drop(stop);
        out
    })
}

/// Frames over a reader/writer pair: a coordinator-spawned worker's
/// stdin and stdout.
pub struct StdioLink<R, W> {
    reader: R,
    /// One lock, so a heartbeat never interleaves with a result frame.
    writer: Mutex<W>,
}

impl<R, W> StdioLink<R, W> {
    /// A link reading coordinator frames from `reader` and writing
    /// worker frames to `writer`.
    pub fn new(reader: R, writer: W) -> StdioLink<R, W> {
        StdioLink { reader, writer: Mutex::new(writer) }
    }
}

impl<R: BufRead + Sync, W: Write + Send> WorkerLink for StdioLink<R, W> {
    fn recv(&mut self) -> Result<Option<CoordMsg>, String> {
        // Clean EOF between frames: the coordinator went away.
        match read_frame(&mut self.reader).map_err(|e| format!("bad frame: {e}"))? {
            Some(frame) => CoordMsg::parse(&frame).map(Some).map_err(|e| e.to_string()),
            None => Ok(None),
        }
    }

    fn send(&self, payload: &str) -> Result<(), String> {
        let mut writer = self.writer.lock().expect("worker writer lock");
        write_frame(&mut *writer, payload).map_err(|e| e.to_string())
    }
}

/// Frames over TCP through a self-healing [`Remote`]. A dropped or
/// corrupt connection is not an error: the link reconnects, presenting
/// its session token so the current lease stays alive. A coordinator
/// that stays gone past the bounded reconnect budget ends the worker
/// cleanly (its lease has been requeued by then anyway).
pub struct TcpLink {
    remote: Remote,
    /// The connection `recv` reads, with its generation for
    /// [`Remote::disconnect`].
    conn: Option<(BufReader<TcpStream>, u64)>,
}

impl TcpLink {
    /// A link to the coordinator at `addr` (no I/O until the first
    /// `recv`). `tag` is the coordinator-assigned spawn ordinal, if
    /// the coordinator spawned this worker.
    pub fn new(addr: &str, tag: Option<u64>) -> TcpLink {
        TcpLink { remote: Remote::new(addr, tag), conn: None }
    }
}

impl WorkerLink for TcpLink {
    fn recv(&mut self) -> Result<Option<CoordMsg>, String> {
        loop {
            if self.conn.is_none() {
                match self.remote.ensure() {
                    Ok((stream, generation)) => {
                        self.conn = Some((BufReader::new(stream), generation));
                    }
                    Err(RemoteError::Fatal(e)) => return Err(e),
                    // After a completed handshake, a coordinator gone
                    // past the reconnect budget is a normal end of
                    // service; before one it is a startup failure.
                    Err(RemoteError::Unreachable(e)) => {
                        if self.remote.session().is_some() {
                            eprintln!("campaign-worker: coordinator gone ({e}), exiting");
                            return Ok(None);
                        }
                        return Err(e);
                    }
                }
            }
            let (reader, generation) = self.conn.as_mut().expect("connected above");
            let generation = *generation;
            // EOF or a read error (including the idle timeout) ends
            // this connection; reconnect and resume.
            if let Ok(Some(frame)) = read_frame(reader) {
                match CoordMsg::parse(&frame) {
                    Ok(msg) => return Ok(Some(msg)),
                    // A corrupt coordinator frame: drop the link and
                    // re-handshake rather than act on garbage.
                    Err(e) => eprintln!("campaign-worker: bad frame: {e}"),
                }
            }
            self.remote.disconnect(generation);
            self.conn = None;
        }
    }

    fn send(&self, payload: &str) -> Result<(), String> {
        // `Remote::send` reconnects on its own.
        self.remote.send(payload).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::proto::encode_frame;
    use std::io::Cursor;
    use std::time::Instant;

    fn unit(id: u64) -> WorkUnit {
        WorkUnit {
            id,
            scheduler: "rr".into(),
            plan: String::new(),
            seed_start: id * 2,
            runs: 2,
            budget: 100,
            index_base: (id * 2) as usize,
            system: vec![("protocol".into(), "racing".into())],
        }
    }

    fn lease(id: u64, heartbeat_ms: u64) -> String {
        encode_frame(
            &CoordMsg::Lease {
                unit: unit(id),
                state_dir: "state".into(),
                corpus_dir: "corpus".into(),
                heartbeat_ms,
            }
            .to_json(),
        )
    }

    fn shard(unit: &WorkUnit) -> ShardResult {
        ShardResult {
            unit: unit.id,
            records: Vec::new(),
            fault_records: Vec::new(),
            fingerprints: Vec::new(),
            degraded_runs: 0,
            cache_truncated: false,
        }
    }

    /// The frames a worker wrote, decoded in order.
    fn sent(bytes: &[u8]) -> Vec<WorkerMsg> {
        let mut reader = bytes;
        std::iter::from_fn(|| read_frame(&mut reader).unwrap())
            .map(|payload| WorkerMsg::parse(&payload).unwrap())
            .collect()
    }

    #[test]
    fn results_do_not_wait_out_the_heartbeat_period() {
        let input =
            [lease(0, 5_000), lease(1, 5_000), encode_frame(&CoordMsg::Shutdown.to_json())]
                .concat();
        let mut link = StdioLink::new(Cursor::new(input.into_bytes()), Vec::new());
        let start = Instant::now();
        serve(&mut link, |unit, _, _| Ok(shard(unit))).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "two units took {:?} against a 5 s heartbeat period",
            start.elapsed()
        );
        let out = link.writer.into_inner().unwrap();
        let kinds: Vec<(&str, u64)> = sent(&out)
            .iter()
            .map(|msg| match msg {
                WorkerMsg::Heartbeat { unit } => ("beat", *unit),
                WorkerMsg::Result { unit, .. } => ("result", *unit),
                WorkerMsg::Hello { .. } => ("hello", 0),
            })
            .collect();
        assert_eq!(kinds, [("beat", 0), ("result", 0), ("beat", 1), ("result", 1)]);
    }

    #[test]
    fn beats_keep_coming_while_a_unit_runs() {
        let input = [lease(7, 10), encode_frame(&CoordMsg::Shutdown.to_json())].concat();
        let mut link = StdioLink::new(Cursor::new(input.into_bytes()), Vec::new());
        serve(&mut link, |unit, _, _| {
            std::thread::sleep(Duration::from_millis(120));
            Ok(shard(unit))
        })
        .unwrap();
        let msgs = sent(&link.writer.into_inner().unwrap());
        let beats = msgs.iter().filter(|m| matches!(m, WorkerMsg::Heartbeat { unit: 7 })).count();
        assert!(beats >= 3, "only {beats} heartbeats in 120 ms at a 10 ms period");
        assert!(matches!(msgs.last(), Some(WorkerMsg::Result { unit: 7, .. })));
    }

    #[test]
    fn eof_ends_cleanly_and_unit_errors_fail() {
        let mut idle = StdioLink::new(Cursor::new(Vec::new()), Vec::new());
        assert_eq!(serve(&mut idle, |unit, _, _| Ok(shard(unit))), Ok(()));

        let mut failing =
            StdioLink::new(Cursor::new(lease(3, 1_000).into_bytes()), Vec::new());
        let err = serve(&mut failing, |_, _, _| Err("boom".to_string())).unwrap_err();
        assert_eq!(err, "unit 3: boom");

        let mut garbled = StdioLink::new(Cursor::new(b"zz".to_vec()), Vec::new());
        let err = serve(&mut garbled, |unit, _, _| Ok(shard(unit))).unwrap_err();
        assert!(err.starts_with("bad frame"), "{err}");
    }
}
