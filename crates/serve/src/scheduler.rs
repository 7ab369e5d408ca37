//! The one serving scheduler, under both front doors:
//! [`InferenceServer::serve`](crate::InferenceServer::serve) submits a
//! closed slice at t=0 and drains; `sram_net`'s IO thread submits each
//! admitted request as it arrives and drains completions into sockets.
//!
//! ```text
//!  submit ──▶ job queue ──▶ worker 0..W ──▶ runs of a batchable tenant: classify_batch
//!   (Mutex<VecDeque> + Condvar,     │          every other job:          classify_request
//!    adaptive_batch pops)           └──▶ completions (mpsc) ──▶ front door
//! ```
//!
//! A *tenant* is a `(&NeuromorphicSystem, seed)` pair; request `id` of a
//! tenant draws its faults from `derive_seed(seed, id)`, so predictions and
//! fault bits are a pure function of `(tenant, id)` — independent of worker
//! count, batch placement and arrival order. Each worker keeps one warm
//! [`InferContext`] per tenant.
//!
//! **The amortization rule.** A popped batch is served in runs of
//! consecutive same-tenant jobs. A run of a tenant whose bank window cannot
//! fault a read ([`NeuromorphicSystem::read_fault_free`]) shares one
//! physical row fetch per neuron; every other job takes the per-request
//! path. Both bill identical reads and replay identical predictions.

use neuro_system::controller::{InferContext, NeuromorphicSystem};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Micro-batch size for the current backlog: split the queue so every
/// worker gets roughly two more turns (bounds tail imbalance at ~half a
/// batch), clamped to `[1, max_batch]`.
pub(crate) fn adaptive_batch(queue_len: usize, workers: usize, max_batch: usize) -> usize {
    (queue_len / (2 * workers.max(1))).clamp(1, max_batch.max(1))
}

/// One admitted request. `features` is borrowed for a closed slice and
/// owned off the wire; `tag` rides through to the completion untouched.
#[derive(Debug)]
pub struct Job<F, T> {
    /// Index into the scheduler's tenant list.
    pub tenant: usize,
    /// Request id: selects the request's fault-seed stream.
    pub id: u64,
    /// Input features (the tenant's input width).
    pub features: F,
    /// Admission instant; queue wait is measured from here.
    pub admitted: Instant,
    /// Caller routing data.
    pub tag: T,
}

/// One served request.
#[derive(Debug, Clone, Copy)]
pub struct Completion<T> {
    /// Tenant index.
    pub tenant: usize,
    /// Request id.
    pub id: u64,
    /// Predicted class.
    pub prediction: usize,
    /// Read-fault bits injected into this request.
    pub fault_bits: u64,
    /// Memory words billed to this request.
    pub reads: u64,
    /// Admission → processing start.
    pub queue_ns: u64,
    /// Processing start → completion; the members of an amortized run
    /// each record the run's span.
    pub service_ns: u64,
    /// The job's tag.
    pub tag: T,
}

/// Micro-batches one worker popped, and the largest.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Micro-batches popped.
    pub batches: usize,
    /// Largest micro-batch popped.
    pub max_batch: usize,
}

struct Queue<F, T> {
    jobs: VecDeque<Job<F, T>>,
    closed: bool,
}

/// The job queue and worker loop over a fixed tenant list.
pub struct Scheduler<'a, F, T> {
    tenants: Vec<(&'a NeuromorphicSystem, u64)>,
    batchable: Vec<bool>,
    workers: usize,
    max_batch: usize,
    queue: Mutex<Queue<F, T>>,
    ready: Condvar,
}

impl<'a, F: AsRef<[f32]> + Send, T: Copy + Send> Scheduler<'a, F, T> {
    /// A scheduler for `workers` workers popping at most `max_batch` jobs
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero.
    pub fn new(
        tenants: Vec<(&'a NeuromorphicSystem, u64)>,
        workers: usize,
        max_batch: usize,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(max_batch > 0, "max_batch must be at least 1");
        Self {
            batchable: tenants.iter().map(|(s, _)| s.read_fault_free()).collect(),
            tenants,
            workers,
            max_batch,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue<F, T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues jobs and wakes workers for them.
    pub fn submit(&self, jobs: impl IntoIterator<Item = Job<F, T>>) {
        let mut q = self.lock();
        let before = q.jobs.len();
        q.jobs.extend(jobs);
        match q.jobs.len() - before {
            0 => {}
            1 => self.ready.notify_one(),
            _ => self.ready.notify_all(),
        }
    }

    /// Runs the workers while `front` runs on the calling thread. When
    /// `front` returns or unwinds, the queue closes: workers finish what is
    /// queued, then exit. Every completion goes to `done`.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic, after joining every worker.
    pub fn run<R>(
        &self,
        done: &Sender<Completion<T>>,
        front: impl FnOnce() -> R,
    ) -> (R, Vec<WorkerStats>) {
        /// Closes the queue on drop, so no worker waits on a front door
        /// that is gone.
        struct Close<'s, 'a, F, T>(&'s Scheduler<'a, F, T>);
        impl<F, T> Drop for Close<'_, '_, F, T> {
            fn drop(&mut self) {
                let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
                q.closed = true;
                self.0.ready.notify_all();
            }
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| scope.spawn(|| self.work(done.clone())))
                .collect();
            let out = {
                let _close = Close(self);
                front()
            };
            // Join every worker before resuming a panic: unwinding with
            // live workers would double-panic during scope teardown.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let stats = joined.into_iter().collect::<Result<_, _>>();
            (out, stats.unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })
    }

    /// The worker loop: pop an adaptive micro-batch, serve it in tenant
    /// runs, send one completion per job.
    fn work(&self, done: Sender<Completion<T>>) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let mut ctxs: Vec<Option<InferContext>> = self.tenants.iter().map(|_| None).collect();
        let mut run_ctxs: Vec<InferContext> = Vec::new();
        let mut batch: Vec<Job<F, T>> = Vec::with_capacity(self.max_batch);
        loop {
            {
                let mut q = self.lock();
                while q.jobs.is_empty() {
                    if q.closed {
                        return stats;
                    }
                    q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                let len = q.jobs.len();
                let take = adaptive_batch(len, self.workers, self.max_batch).min(len);
                batch.extend(q.jobs.drain(..take));
            }
            stats.batches += 1;
            stats.max_batch = stats.max_batch.max(batch.len());

            let mut rest = &batch[..];
            while let Some(first) = rest.first() {
                let (system, seed) = self.tenants[first.tenant];
                let len = if self.batchable[first.tenant] {
                    rest.iter().take_while(|j| j.tenant == first.tenant).count()
                } else {
                    1
                };
                let (run, tail) = rest.split_at(len);
                rest = tail;
                if len == 1 {
                    let ctx =
                        ctxs[first.tenant].get_or_insert_with(|| system.make_context(seed, 0));
                    ctx.reset(seed, first.id);
                    let begun = Instant::now();
                    let prediction = system.classify_request(first.features.as_ref(), ctx);
                    let _ = done.send(complete(first, prediction, ctx, begun, begun.elapsed()));
                    continue;
                }
                while run_ctxs.len() < len {
                    run_ctxs.push(system.make_context(seed, 0));
                }
                for (job, ctx) in run.iter().zip(&mut run_ctxs) {
                    ctx.reset(seed, job.id);
                }
                let features: Vec<&[f32]> = run.iter().map(|j| j.features.as_ref()).collect();
                let begun = Instant::now();
                let predictions = system.classify_batch(&features, &mut run_ctxs[..len]);
                let service = begun.elapsed();
                for ((job, ctx), prediction) in run.iter().zip(&run_ctxs).zip(predictions) {
                    let _ = done.send(complete(job, prediction, ctx, begun, service));
                }
            }
            batch.clear();
        }
    }
}

fn complete<F, T: Copy>(
    job: &Job<F, T>,
    prediction: usize,
    ctx: &InferContext,
    begun: Instant,
    service: std::time::Duration,
) -> Completion<T> {
    Completion {
        tenant: job.tenant,
        id: job.id,
        prediction,
        fault_bits: ctx.fault_bits(),
        reads: ctx.reads(),
        queue_ns: begun.saturating_duration_since(job.admitted).as_nanos() as u64,
        service_ns: service.as_nanos() as u64,
        tag: job.tag,
    }
}
