//! The closed-loop wire driver.
//!
//! One thread drives one TCP connection as an analyst with zero think
//! time: it sends its next request as soon as the previous reply is
//! decoded, because ForeCache analysts wait for each tile before their
//! next move. The server crate's epoll shim takes its timeout in whole
//! milliseconds, too coarse to pace requests on a timer, which is one
//! more reason the loop is closed. A request's latency runs from the
//! socket write to the decoded reply.

use crate::alloc::{self, AllocCount};
use crate::check::Expected;
use crate::metrics::Units;
use crate::osstat::{self, TaskCounters};
use fc_server::protocol::read_frame;
use fc_server::{ClientMsg, FrameBuf, ServerMsg};
use fc_tiles::{Move, TileId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the driver waits for one reply before it counts the request
/// as never answered and ends the run.
const REPLY_LIMIT: Duration = Duration::from_secs(20);

/// The next message the connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Open a new session (a fresh middleware on the server).
    Hello,
    /// Request a tile.
    Tile(TileId, Option<Move>),
}

/// What the connection sends, and the workload's own reply check.
pub trait Sessions {
    /// Prefetch budget sent in every Hello.
    fn k(&self) -> u32;
    /// The next message. The first is a Hello.
    fn next(&mut self) -> Next;
    /// The kind of the workload unit the last message belongs to (the
    /// piece of work the workload repeats) and the unit's serial
    /// number; a new unit starts whenever the pair changes.
    fn unit(&self) -> (usize, usize);
    /// Whether a tile reply's hit or miss is the one the workload
    /// expects for the request sent last.
    fn hit_ok(&mut self, cache_hit: bool) -> bool;
}

/// Outcome of one measured wire phase.
#[derive(Debug)]
pub struct WireRun {
    /// Request latencies and serving CPU time by workload unit.
    pub units: Units,
    /// Tile requests sent.
    pub attempted: u64,
    /// Tile requests answered (with a tile or an error).
    pub answered: u64,
    /// Error replies, replies failing the check, and requests never
    /// answered.
    pub failed: u64,
    /// Replies the server marked as cache hits.
    pub hits: u64,
    /// Sum of the paper-model latencies the server reported, ns.
    pub sim_latency_ns: u128,
    /// Bytes the driver read: everything the server wrote.
    pub bytes_in: u64,
    /// OS counters of every thread but the driver.
    pub serving: TaskCounters,
    /// OS counters of the driver thread.
    pub driver: TaskCounters,
    /// Allocations of every thread but the driver.
    pub serving_allocs: AllocCount,
}

/// Sends `msg` and reads one reply frame, counting the bytes read.
fn round_trip(
    stream: &mut TcpStream,
    frame: &mut FrameBuf,
    msg: &ClientMsg,
    bytes_in: &mut u64,
) -> io::Result<ServerMsg> {
    stream.write_all(msg.encode_into(frame))?;
    let body = read_frame(stream)?;
    *bytes_in += 4 + body.len() as u64;
    ServerMsg::decode(body)
}

/// Connects to `addr` and drives closed-loop messages for `duration`.
/// The run ends early when a session is refused, a reply cannot be
/// read or decoded, or none comes within [`REPLY_LIMIT`]; the request
/// in flight then counts as failed. OS and allocation counters cover
/// the measured phase, from the first message to the last reply.
///
/// # Errors
/// Socket errors while connecting.
pub fn drive(
    addr: SocketAddr,
    sessions: &mut dyn Sessions,
    expected: &Expected,
    duration: Duration,
) -> io::Result<WireRun> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_LIMIT))?;
    let mut frame = FrameBuf::new();
    let mut run = WireRun {
        units: Units::default(),
        attempted: 0,
        answered: 0,
        failed: 0,
        hits: 0,
        sim_latency_ns: 0,
        bytes_in: 0,
        serving: TaskCounters::default(),
        driver: TaskCounters::default(),
        serving_allocs: AllocCount::default(),
    };
    let driver_tid = osstat::this_tid();
    let tasks_before = osstat::snapshot();
    let driver_before = osstat::this_thread();
    let allocs_before = (alloc::process_total(), alloc::this_thread());
    // Serving CPU: the whole process less the driver thread.
    let serving_cpu = || osstat::process_cpu_ns().saturating_sub(osstat::thread_cpu_ns());
    let mut cpus = osstat::CpuChooser::new();
    let start = Instant::now();
    let mut unit = None;
    while start.elapsed() < duration {
        let next = sessions.next();
        let (kind, serial) = sessions.unit();
        if unit != Some(serial) {
            unit = Some(serial);
            cpus.tick();
            run.units.begin(kind, Instant::now(), serving_cpu());
        }
        match next {
            Next::Hello => {
                let hello = ClientMsg::Hello {
                    prefetch_k: sessions.k(),
                    dataset: String::new(),
                };
                match round_trip(&mut stream, &mut frame, &hello, &mut run.bytes_in) {
                    Ok(ServerMsg::Welcome { .. }) => {}
                    // A refused session cannot go on.
                    _ => {
                        run.failed += 1;
                        break;
                    }
                }
            }
            Next::Tile(tile, mv) => {
                run.attempted += 1;
                let sent = Instant::now();
                let msg = ClientMsg::RequestTile { tile, mv };
                let reply = round_trip(&mut stream, &mut frame, &msg, &mut run.bytes_in);
                let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                match reply {
                    Ok(ServerMsg::Tile {
                        payload,
                        latency_ns,
                        cache_hit,
                        degraded,
                        ..
                    }) => {
                        run.units.record(ns);
                        run.answered += 1;
                        run.hits += u64::from(cache_hit);
                        run.sim_latency_ns += u128::from(latency_ns);
                        let ok = !degraded
                            && expected.matches(tile, &payload)
                            && sessions.hit_ok(cache_hit);
                        run.failed += u64::from(!ok);
                    }
                    Ok(_) => {
                        run.answered += 1;
                        run.failed += 1;
                    }
                    // Unreadable, undecodable or never answered.
                    Err(_) => {
                        run.failed += 1;
                        break;
                    }
                }
            }
        }
    }
    // Counters are read before the Bye so that every serving thread is
    // still alive.
    let allocs_after = (alloc::process_total(), alloc::this_thread());
    run.driver = osstat::this_thread().since(driver_before);
    run.serving = osstat::delta(&tasks_before, &osstat::snapshot(), driver_tid);
    let total = allocs_after.0.since(allocs_before.0);
    let own = allocs_after.1.since(allocs_before.1);
    run.serving_allocs = total.since(own);
    let _ = stream.write_all(ClientMsg::Bye.encode_into(&mut frame));
    Ok(run)
}
