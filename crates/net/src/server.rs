//! The evented TCP front door: non-blocking sockets, a poll loop, and
//! SLO-aware admission onto the shared `sram_serve` scheduler.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ IO thread ──admit──▶ sram_serve::scheduler (queue → micro-batches → workers)
//!                  (accept, decode,                │
//!                   shed/degrade, write ◀── completions (mpsc)
//!                   buffers, timeouts)
//! ```
//!
//! One IO thread owns every socket (no epoll, no registry — the same
//! hand-rolled discipline as the shims): it accepts, reads into
//! per-connection [`FrameDecoder`]s, makes the admission decision, submits
//! admitted requests to the [`Scheduler`] `InferenceServer` also runs on,
//! drains its completions into per-connection write buffers, and enforces
//! the timeouts. Workers never touch a socket.
//!
//! # Admission
//!
//! Three bounds, all checked before a classify request is queued:
//!
//! 1. **Per-connection in-flight** and **global in-flight** hard caps —
//!    beyond either, the request is *shed* with an explicit
//!    [`Status::Overloaded`] response (never silently dropped).
//! 2. A **soft watermark** below the global cap — beyond it the request
//!    still queues, but its tenant is degraded to its drowsy retention
//!    tier (standby-leakage scale [`TenantSpec::drowsy_scale`]); tenants
//!    recover when the backlog halves.
//!
//! Degrading changes the *energy accounting state*, never the fault
//! stream: predictions stay a pure function of `(tenant, request_id)`, so
//! overload timing cannot leak into the determinism contract.
//!
//! [`TenantSpec::drowsy_scale`]: crate::registry::TenantSpec::drowsy_scale
//! [`Status::Overloaded`]: crate::proto::Status::Overloaded

use crate::proto::{
    decode_request, encode_response, response_mix, ClassifyReply, FrameDecoder, Request,
    RequestBody, Response, Status,
};
use crate::registry::ModelRegistry;
use sram_serve::scheduler::{Completion, Job, Scheduler};
use sram_serve::{bit_error_rate, LatencyHistogram, ServeOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-tier knobs.
#[derive(Debug, Clone)]
pub struct NetServerOptions {
    /// Address to bind; `127.0.0.1:0` picks a free port.
    pub bind_addr: String,
    /// Worker threads; 0 resolves like the exec pool
    /// ([`sram_exec::effective_threads`]).
    pub workers: usize,
    /// Global in-flight hard cap: beyond it classify requests are shed
    /// with [`Status::Overloaded`].
    pub global_inflight: usize,
    /// Soft watermark (≤ the hard cap): beyond it the request's tenant is
    /// degraded to its drowsy retention tier before queueing.
    pub soft_inflight: usize,
    /// Per-connection in-flight hard cap.
    pub per_conn_inflight: usize,
    /// A connection sitting on a *partial* frame longer than this is
    /// dropped — the slow-loris bound. Idle connections (no partial
    /// frame) are left open.
    pub read_idle_timeout: Duration,
    /// Per-connection write-buffer cap; a reader slower than this is
    /// dropped rather than allowed to balloon server memory.
    pub max_write_buffer: usize,
    /// Connection count cap; excess accepts are closed immediately.
    pub max_conns: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".to_string(),
            workers: 0,
            global_inflight: 256,
            soft_inflight: 192,
            per_conn_inflight: 128,
            read_idle_timeout: Duration::from_secs(5),
            max_write_buffer: 1 << 20,
            max_conns: 1024,
        }
    }
}

/// Poll-loop sleep when a tick moved no bytes; bounds idle CPU burn at
/// the cost of ~a tenth of a millisecond of added latency.
const IDLE_TICK: Duration = Duration::from_micros(100);

/// How long `stop()` waits for in-flight work and write buffers to drain
/// before tearing the loop down anyway.
const STOP_DEADLINE: Duration = Duration::from_secs(10);

/// Per-tenant serving metrics.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Classify requests served.
    pub served: u64,
    /// Classify requests shed with `Overloaded`.
    pub shed: u64,
    /// Served requests admitted while the tenant was degraded to its
    /// drowsy tier.
    pub drowsy_served: u64,
    /// Healthy → drowsy transitions.
    pub degrade_events: u64,
    /// Admission → processing-start wait distribution.
    pub queue: LatencyHistogram,
    /// Processing-start → completion service distribution.
    pub service: LatencyHistogram,
    /// Read-fault bits injected into this tenant's requests.
    pub fault_bits: u64,
    /// Memory words read by this tenant's requests.
    pub words_read: u64,
    /// Modeled dynamic energy, joules (served × per-inference).
    pub energy_j: f64,
    /// Standby-leakage scale currently in effect (1.0 healthy,
    /// `drowsy_scale` while degraded).
    pub standby_scale: f64,
    /// Order-invariant digest over `(request_id, prediction, fault_bits)`
    /// of every served request.
    pub digest: u64,
}

impl TenantReport {
    /// Injected fault bits per bit read.
    pub fn observed_bit_error_rate(&self) -> f64 {
        bit_error_rate(self.fault_bits, self.words_read)
    }
}

/// Everything one server run produced.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Per-tenant metrics, registry order.
    pub tenants: Vec<TenantReport>,
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections dropped by the server (timeouts, protocol violations,
    /// write-buffer overflow) — *not* counting clean client closes.
    pub conns_dropped: u64,
    /// Frames that failed to decode into a request.
    pub bad_frames: u64,
    /// Pings answered.
    pub pings: u64,
    /// Wall time the server ran.
    pub wall: Duration,
}

impl NetReport {
    /// Classify requests served, all tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// Classify requests shed, all tenants.
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Order-invariant digest over every served request, all tenants.
    pub fn digest(&self) -> u64 {
        self.tenants
            .iter()
            .fold(0u64, |acc, t| acc.wrapping_add(t.digest))
    }
}

/// A running server; dropping it without [`stop`](Self::stop) detaches
/// the serving thread (it keeps serving until process exit).
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<NetReport>>,
}

impl RunningServer {
    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the IO loop to finish in-flight work, tears it down, and
    /// returns the final report.
    ///
    /// # Panics
    ///
    /// Propagates a server-thread panic.
    pub fn stop(mut self) -> NetReport {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("server already stopped")
            .join()
            .expect("server thread panicked")
    }
}

/// Binds the listener and spawns the IO thread, which runs the scheduler's
/// workers for as long as it serves.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn spawn(
    registry: Arc<ModelRegistry>,
    options: NetServerOptions,
) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(&options.bind_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("sram-net-io".to_string())
        .spawn(move || run_server(listener, &registry, &options, &stop_flag))
        .expect("spawn server thread");
    Ok(RunningServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Where an admitted job's response goes: the connection slot, the
/// connection generation occupying it at admission, and whether the
/// tenant was degraded when the job was admitted.
#[derive(Debug, Clone, Copy)]
struct Route {
    slot: usize,
    gen: u64,
    drowsy: bool,
}

/// One connection's state, owned by the IO thread.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending outbound bytes (responses are appended, flushed as the
    /// socket accepts them).
    out: Vec<u8>,
    /// How much of `out` is already written.
    out_pos: usize,
    inflight: usize,
    gen: u64,
    last_progress: Instant,
    /// Flush-then-close (set after a protocol violation).
    closing: bool,
    /// Peer closed its write side; reap once our buffer drains and no
    /// jobs are in flight.
    peer_closed: bool,
}

impl Conn {
    fn queue_response(&mut self, resp: &Response) {
        // Drop the already-flushed prefix occasionally so the buffer does
        // not grow without bound on long-lived connections.
        if self.out_pos > 0 && self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(&encode_response(resp));
    }

    /// Queues a response that carries no classify reply.
    fn queue_status(&mut self, status: Status, request_id: u64) {
        self.queue_response(&Response {
            status,
            request_id,
            reply: None,
        });
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Per-tenant mutable serving state (IO-thread local).
struct TenantState {
    report: TenantReport,
    drowsy: bool,
    drowsy_scale: f64,
    energy_per_inference_j: f64,
    input_width: usize,
}

fn run_server(
    listener: TcpListener,
    registry: &Arc<ModelRegistry>,
    options: &NetServerOptions,
    stop: &AtomicBool,
) -> NetReport {
    let started = Instant::now();
    let scheduler = Scheduler::new(
        registry.systems(),
        sram_exec::resolve_workers(options.workers),
        ServeOptions::default().max_batch,
    );
    let (done_tx, done_rx) = mpsc::channel::<Completion<Route>>();

    let mut tenants: Vec<TenantState> = (0..registry.len())
        .map(|t| {
            let spec = registry.spec(t);
            TenantState {
                report: TenantReport {
                    name: spec.name.clone(),
                    ..TenantReport::default()
                },
                drowsy: false,
                drowsy_scale: spec.drowsy_scale,
                energy_per_inference_j: spec.energy_per_inference_j,
                input_width: registry.input_width(t),
            }
        })
        .collect();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut conns_accepted = 0u64;
    let mut conns_dropped = 0u64;
    let mut bad_frames = 0u64;
    let mut pings = 0u64;
    let mut inflight = 0usize;
    let mut stop_seen: Option<Instant> = None;

    scheduler.run(&done_tx, || {
        let mut read_buf = [0u8; 8192];
        loop {
            let mut progressed = false;

            // 1. Accept.
            if stop_seen.is_none() {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            progressed = true;
                            let live = conns.iter().filter(|c| c.is_some()).count();
                            if live >= options.max_conns || stream.set_nonblocking(true).is_err() {
                                conns_dropped += 1;
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns_accepted += 1;
                            let conn = Conn {
                                stream,
                                decoder: FrameDecoder::new(),
                                out: Vec::new(),
                                out_pos: 0,
                                inflight: 0,
                                gen: conns_accepted,
                                last_progress: Instant::now(),
                                closing: false,
                                peer_closed: false,
                            };
                            match conns.iter_mut().position(|c| c.is_none()) {
                                Some(slot) => conns[slot] = Some(conn),
                                None => conns.push(Some(conn)),
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }

            // 2. Read + decode + admit.
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                if conn.closing {
                    continue;
                }
                let mut budget = 8; // reads per conn per tick; keeps one firehose from starving the rest
                while budget > 0 {
                    budget -= 1;
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.last_progress = Instant::now();
                            conn.decoder.extend(&read_buf[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.peer_closed = true;
                            break;
                        }
                    }
                }
                // Pop every complete frame.
                loop {
                    match conn.decoder.next_frame() {
                        Err(oversized) => {
                            bad_frames += 1;
                            conn.queue_status(Status::FrameTooLarge, oversized.declared as u64);
                            conn.closing = true;
                            break;
                        }
                        Ok(None) => break,
                        Ok(Some(payload)) => {
                            progressed = true;
                            match decode_request(&payload) {
                                Err(_) => {
                                    bad_frames += 1;
                                    conn.queue_status(Status::BadRequest, 0);
                                }
                                Ok(req) => handle_request(
                                    req,
                                    slot,
                                    conn,
                                    &mut tenants,
                                    &mut inflight,
                                    &mut pings,
                                    options,
                                    &scheduler,
                                ),
                            }
                        }
                    }
                }
            }

            // 3. Drain scheduler completions into write buffers.
            while let Ok(done) = done_rx.try_recv() {
                progressed = true;
                inflight -= 1;
                let route = done.tag;
                let prediction = done.prediction as u16;
                let state = &mut tenants[done.tenant];
                state.report.served += 1;
                state.report.queue.record(done.queue_ns);
                state.report.service.record(done.service_ns);
                state.report.fault_bits += done.fault_bits;
                state.report.words_read += done.reads;
                state.report.energy_j += state.energy_per_inference_j;
                if route.drowsy {
                    state.report.drowsy_served += 1;
                }
                state.report.digest = state.report.digest.wrapping_add(response_mix(
                    done.tenant as u16,
                    done.id,
                    prediction,
                    done.fault_bits as u32,
                ));
                // Backlog halved: recover every tenant to the healthy tier.
                if inflight * 2 < options.soft_inflight {
                    for t in tenants.iter_mut() {
                        t.drowsy = false;
                    }
                }
                if let Some(conn) = conns[route.slot].as_mut() {
                    if conn.gen == route.gen {
                        conn.inflight -= 1;
                        conn.queue_response(&Response {
                            status: Status::Ok,
                            request_id: done.id,
                            reply: Some(ClassifyReply {
                                prediction,
                                fault_bits: done.fault_bits as u32,
                                queue_ns: done.queue_ns,
                                service_ns: done.service_ns,
                            }),
                        });
                    }
                }
            }

            // 4. Flush write buffers; enforce timeouts; reap connections.
            let now = Instant::now();
            for entry in conns.iter_mut() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                while conn.pending_out() > 0 {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(n) if n > 0 => {
                            progressed = true;
                            conn.out_pos += n;
                            conn.last_progress = now;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        // Dead peer (or zero-length write): nothing left
                        // to flush to — discard the buffer so the
                        // connection can be reaped.
                        _ => {
                            conn.out_pos = conn.out.len();
                            conn.peer_closed = true;
                            break;
                        }
                    }
                }
                let slow_loris = conn.decoder.has_partial()
                    && now.duration_since(conn.last_progress) > options.read_idle_timeout;
                let stuck_writer = conn.pending_out() > options.max_write_buffer
                    || (conn.pending_out() > 0
                        && now.duration_since(conn.last_progress) > options.read_idle_timeout);
                let flushed_close = (conn.closing || conn.peer_closed)
                    && conn.pending_out() == 0
                    && conn.inflight == 0;
                if slow_loris || stuck_writer || conn.closing && conn.peer_closed {
                    conns_dropped += 1;
                    *entry = None;
                } else if flushed_close {
                    if conn.closing {
                        conns_dropped += 1;
                    }
                    *entry = None;
                }
            }

            // 5. Stop handling.
            if stop.load(Ordering::SeqCst) && stop_seen.is_none() {
                stop_seen = Some(Instant::now());
            }
            if let Some(at) = stop_seen {
                let drained = inflight == 0 && conns.iter().flatten().all(|c| c.pending_out() == 0);
                if drained || at.elapsed() > STOP_DEADLINE {
                    break;
                }
            }

            if !progressed {
                std::thread::sleep(IDLE_TICK);
            }
        }
    });

    for state in tenants.iter_mut() {
        state.report.standby_scale = if state.drowsy {
            state.drowsy_scale
        } else {
            1.0
        };
    }
    NetReport {
        tenants: tenants.into_iter().map(|t| t.report).collect(),
        conns_accepted,
        conns_dropped,
        bad_frames,
        pings,
        wall: started.elapsed(),
    }
}

/// Admission: validate, shed, degrade, or queue one decoded request.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    req: Request,
    slot: usize,
    conn: &mut Conn,
    tenants: &mut [TenantState],
    inflight: &mut usize,
    pings: &mut u64,
    options: &NetServerOptions,
    scheduler: &Scheduler<'_, Vec<f32>, Route>,
) {
    let features = match req.body {
        RequestBody::Ping => {
            *pings += 1;
            conn.queue_status(Status::Ok, req.request_id);
            return;
        }
        RequestBody::Classify(features) => features,
    };
    let tenant = req.tenant as usize;
    if tenant >= tenants.len() {
        conn.queue_status(Status::UnknownTenant, req.request_id);
        return;
    }
    let state = &mut tenants[tenant];
    if features.len() != state.input_width {
        conn.queue_status(Status::BadRequest, req.request_id);
        return;
    }
    if *inflight >= options.global_inflight || conn.inflight >= options.per_conn_inflight {
        state.report.shed += 1;
        conn.queue_status(Status::Overloaded, req.request_id);
        return;
    }
    // Soft overload: degrade this tenant to its drowsy retention tier,
    // then queue anyway. Energy accounting changes; the fault stream does
    // not (determinism contract).
    if *inflight >= options.soft_inflight && !state.drowsy {
        state.drowsy = true;
        state.report.degrade_events += 1;
    }
    *inflight += 1;
    conn.inflight += 1;
    scheduler.submit([Job {
        tenant,
        id: req.request_id,
        features,
        admitted: Instant::now(),
        tag: Route {
            slot,
            gen: conn.gen,
            drowsy: state.drowsy,
        },
    }]);
}
