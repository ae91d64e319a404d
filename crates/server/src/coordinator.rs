//! The coordinator: one front door fanning `POST /v1/jobs` out to a
//! fleet of worker processes over the versioned wire protocol.
//!
//! The coordinator is a router, not a simulator — it runs no engine. A
//! submitted manifest is validated locally (through the *same*
//! [`JobBuilder`] the workers use, so a bad manifest never half-lands on
//! the fleet), each job gets a coordinator-global id, and the job is
//! forwarded to the worker its id hashes to on the consistent-hash
//! [`HashRing`]. Clients poll the coordinator exactly as they would a
//! single server; status documents are proxied from the owning worker
//! with the worker-local id rewritten to the global one, so the embedded
//! `result` object stays byte-identical to what `fts batch` produces.
//!
//! **Failure model.** A periodic `/healthz` prober maintains an up/down
//! flag per worker; down workers are skipped when routing new work.
//! Recovery of already-routed jobs is *lazy*: when a status poll (or the
//! drain loop) finds the owning worker dead — connection refused, or a
//! fresh restart answering `404` for the old job — the coordinator
//! re-submits the job's stored single-job manifest to the next live
//! worker on the ring, up to `route_attempts` times. Re-placement does
//! network I/O, so the job is *claimed* (`Rerouting`) under the
//! registry lock and placed with the lock released; if no worker can
//! take it the job is parked `Stranded` — explicitly holding **no**
//! remote id, so a later poll re-places it instead of ever polling a
//! restarted worker for an id that now belongs to someone else's job.
//! Re-running is safe because results are deterministic: a job that ran
//! to completion on a worker whose answer we never read produces the
//! byte-identical row on its second run. A job whose attempts are
//! exhausted is closed out with a synthetic `failed` row rather than
//! left dangling — drain always terminates. A cancel acknowledged while
//! the owning worker is unreachable is recorded as a terminal cancelled
//! row, so an acknowledged cancellation is never resurrected by the
//! re-route path.
//!
//! **Admission.** All-or-nothing admission is kept, with one documented
//! relaxation: validation is atomic (whole manifest or nothing), but
//! forwarding is per-job, so a mid-manifest fleet failure triggers a
//! best-effort cancel of the already-forwarded prefix before the whole
//! submission is rejected with `503 no_workers`. A client that got ids
//! back holds jobs the fleet accepted; a client that got an error holds
//! nothing.
//!
//! **Result cache.** The coordinator keeps its own [`ResultCache`] keyed
//! by the same canonical `cache_key/1` the workers use. Admission
//! consults it before routing: a `default`-mode job whose key is cached
//! is minted Done locally and never touches the fleet. Proxied
//! completions populate the cache by lifting the `result` bytes out of
//! the worker's document verbatim (never parse → re-render — byte
//! identity is the cache contract). `GET /v1/cache` reports the
//! fleet-wide aggregate plus a per-worker breakdown, and
//! `DELETE /v1/cache` flushes the coordinator and fans the flush out to
//! every worker over the [`WireClient`].
//!
//! **Drain ordering** (`POST /v1/shutdown`, SIGINT, or
//! [`ServerHandle`]): stop accepting, serve queued connections, poll
//! every routed job to completion (rerouting around dead workers), and
//! only then — with zero jobs in flight — cascade the shutdown to each
//! worker. Workers drain their own queues before exiting, so the fleet
//! order is: coordinator empties first, then the fleet.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::{ClientError, ClientLimits, WireClient};
use crate::http::{HttpError, HttpLimits, Request};
use crate::ring::HashRing;
use crate::server::{
    accept_loop, admission_response, bind_addr, close_conn_queue, json_ok, list_params,
    new_conn_queue, prom_escape, prom_num, render_http_series, render_telemetry_series,
    spawn_conn_workers, wire_error_response, HttpApp, HttpMetrics, Response, ServerHandle,
    ShutdownReport,
};
use crate::service::{build_job, JobBuilder, SubmitError, DEFAULT_CACHE_ENTRIES};
use crate::signal;
use crate::wire::{
    cache_member_json, json_escape, json_f64, single_job_manifest, BatchManifest, Json, WireError,
    SCHEMA_VERSION,
};
use fts_engine::{
    cache_key, CacheKey, CacheMode, CacheStats, CachedResult, ResultCache, DEFAULT_CACHE_BYTES,
};

/// Coordinator tunables; every field has a production-safe default
/// except the worker list, which must be non-empty.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address for the coordinator's own HTTP front door.
    pub addr: String,
    /// Worker wire addresses (`ip:port`), the ring's identity — two
    /// coordinators given the same list route identically.
    pub workers: Vec<String>,
    /// `/healthz` probe period per worker.
    pub probe_interval: Duration,
    /// Entry bound shared by the coordinator's own result cache and the
    /// finished (proxied-done or synthetic-failed) rows retained before
    /// oldest-first eviction, as on the single-process server.
    pub cache_entries: usize,
    /// Byte bound on the coordinator's result-cache payloads.
    pub cache_bytes: usize,
    /// Times one job may be re-routed to another worker before the
    /// coordinator closes it out with a synthetic `failed` row.
    pub route_attempts: usize,
    /// Cascade `POST /v1/shutdown` to every worker after the
    /// coordinator's own drain empties (on by default; disable to leave
    /// the fleet running behind a restarting coordinator).
    pub cascade: bool,
    /// Connection worker threads.
    pub conn_workers: usize,
    /// Accepted-connection queue capacity (overflow → canned `429`).
    pub conn_backlog: usize,
    /// HTTP limits for the coordinator's own listener.
    pub limits: HttpLimits,
    /// Limits for the coordinator's outbound worker connections.
    pub client_limits: ClientLimits,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            addr: "127.0.0.1:8706".to_owned(),
            workers: Vec::new(),
            probe_interval: Duration::from_millis(250),
            cache_entries: DEFAULT_CACHE_ENTRIES,
            cache_bytes: DEFAULT_CACHE_BYTES,
            route_attempts: 8,
            cascade: true,
            conn_workers: 4,
            conn_backlog: 128,
            limits: HttpLimits::default(),
            client_limits: ClientLimits::default(),
        }
    }
}

/// One worker as the coordinator sees it: its client, health flag, and
/// route counter.
struct WorkerSlot {
    addr: String,
    client: WireClient,
    /// Flipped by the prober and by routing-time transport failures;
    /// optimistically `true` at startup so the first submissions do not
    /// wait a probe period.
    up: AtomicBool,
    /// Jobs ever routed (first placement or re-route) to this worker.
    routed: AtomicU64,
}

enum CoordState {
    /// Forwarded to `workers[worker]` as remote job `remote`.
    Routed {
        worker: usize,
        remote: u64,
        attempts: usize,
    },
    /// The last placement died and no candidate could take the job, so
    /// it holds **no** remote id. The next status poll goes straight to
    /// re-placement — never to a status fetch, whose id could collide
    /// with a different job on a restarted worker's fresh registry.
    Stranded { attempts: usize },
    /// A poll thread claimed the job and is re-placing it with the
    /// registry lock released; concurrent polls answer synthetic
    /// `queued` instead of stacking behind the placement I/O.
    Rerouting { attempts: usize },
    /// Terminal: the cached (already id-rewritten) status document.
    /// `at` keeps trace proxying alive for jobs that really ran
    /// somewhere; synthetic close-outs (failed/cancelled) carry `None`.
    Done {
        kind: String,
        body: String,
        at: Option<(usize, u64)>,
    },
}

struct CoordJob {
    label: String,
    /// The single-job manifest to re-submit on worker death. `None` for
    /// multi-analysis deck jobs, which cannot be re-posted one job at a
    /// time — those fail closed instead of re-running siblings.
    resubmit: Option<String>,
    /// Canonical content hash, computed from the locally built job at
    /// admission — identical to the key the owning worker computes.
    key: CacheKey,
    /// The submission's cache policy; gates both the admission lookup
    /// and the completion-time insert.
    mode: CacheMode,
    state: CoordState,
}

struct CoordRegistry {
    jobs: HashMap<u64, CoordJob>,
    done_order: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    completed: u64,
}

/// One admission unit after local validation: everything the submit path
/// needs to either serve the job from the coordinator's cache or forward
/// it to a worker.
struct Prepared {
    label: String,
    /// Single-job manifest for death-time re-submission (`None` for
    /// multi-analysis deck jobs).
    resubmit: Option<String>,
    /// The manifest forwarded on first placement.
    forward: String,
    key: CacheKey,
    mode: CacheMode,
    /// An admission-time cache hit; `Some` short-circuits routing.
    hit: Option<CachedResult>,
}

/// The coordinator's routing service: registry + fleet view. Implements
/// [`HttpApp`], so it runs behind the same accept loop, connection
/// workers, and metrics as [`JobService`](crate::JobService).
struct CoordService {
    workers: Vec<WorkerSlot>,
    ring: HashRing,
    builder: Arc<dyn JobBuilder>,
    registry: Mutex<CoordRegistry>,
    cache_entries: usize,
    /// The coordinator's own content-addressed result cache: admission
    /// hits are served here without touching the fleet.
    cache: ResultCache,
    route_attempts: usize,
    rejected: AtomicU64,
}

/// Coordinator gauges for `/healthz` and `/metrics`.
struct CoordGauges {
    routed: usize,
    done_retained: usize,
    completed: u64,
    rejected: u64,
    workers_up: usize,
}

impl CoordService {
    fn new(config: &CoordinatorConfig, builder: Arc<dyn JobBuilder>) -> CoordService {
        let workers = config
            .workers
            .iter()
            .map(|addr| WorkerSlot {
                addr: addr.clone(),
                client: WireClient::new(addr.clone()).limits(config.client_limits),
                up: AtomicBool::new(true),
                routed: AtomicU64::new(0),
            })
            .collect();
        CoordService {
            workers,
            ring: HashRing::new(&config.workers),
            builder,
            registry: Mutex::new(CoordRegistry {
                jobs: HashMap::new(),
                done_order: VecDeque::new(),
                next_id: 0,
                draining: false,
                completed: 0,
            }),
            cache_entries: config.cache_entries.max(1),
            cache: ResultCache::new(config.cache_entries.max(1), config.cache_bytes),
            route_attempts: config.route_attempts.max(1),
            rejected: AtomicU64::new(0),
        }
    }

    fn gauges(&self) -> CoordGauges {
        let reg = self.registry.lock().expect("coord registry poisoned");
        let routed = reg
            .jobs
            .values()
            .filter(|j| !matches!(j.state, CoordState::Done { .. }))
            .count();
        CoordGauges {
            routed,
            done_retained: reg.done_order.len(),
            completed: reg.completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            workers_up: self
                .workers
                .iter()
                .filter(|w| w.up.load(Ordering::SeqCst))
                .count(),
        }
    }

    /// Ring candidates for `id`, live workers first (ring order within
    /// each group) — down workers stay as a last resort because the
    /// prober's view can lag a recovery.
    fn placement_order(&self, id: u64) -> Vec<usize> {
        let candidates = self.ring.candidates(HashRing::key_for_id(id));
        let (live, down): (Vec<usize>, Vec<usize>) = candidates
            .into_iter()
            .partition(|&w| self.workers[w].up.load(Ordering::SeqCst));
        live.into_iter().chain(down).collect()
    }

    /// Forwards one single-job manifest to the first worker in
    /// `placement_order(id)` that accepts it (skipping `exclude`).
    /// Transport failures mark the worker down; API refusals (a worker's
    /// own `429`/`503`) just move on to the next candidate.
    fn place(&self, id: u64, manifest: &str, exclude: Option<usize>) -> Option<(usize, u64)> {
        for w in self.placement_order(id) {
            if exclude == Some(w) {
                continue;
            }
            match self.workers[w].client.submit_manifest(manifest) {
                Ok(remotes) if remotes.len() == 1 => {
                    self.workers[w].routed.fetch_add(1, Ordering::Relaxed);
                    fts_telemetry::counter("coordinator.jobs.routed", 1);
                    return Some((w, remotes[0]));
                }
                Ok(remotes) => {
                    // Unexpected id count: recall whatever the worker
                    // accepted before moving on, so no orphaned
                    // duplicates keep running on the fleet.
                    for r in remotes {
                        let _ = self.workers[w].client.cancel(r);
                    }
                    continue;
                }
                Err(ClientError::Api(_)) => continue,
                Err(_) => {
                    self.mark_down(w);
                    continue;
                }
            }
        }
        None
    }

    fn mark_down(&self, w: usize) {
        if self.workers[w].up.swap(false, Ordering::SeqCst) {
            fts_telemetry::counter("coordinator.workers.marked_down", 1);
        }
    }

    /// `POST /v1/jobs` and `/v1/decks` both land here once lowered to
    /// one [`Prepared`] unit per job.
    fn submit_prepared(&self, prepared: Vec<Prepared>) -> Result<Vec<u64>, SubmitError> {
        // Reserve global ids first; ids burned by a failed submission
        // stay burned (ids are opaque handles, not dense indices).
        let base = {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            if reg.draining {
                return Err(SubmitError::ShuttingDown);
            }
            let base = reg.next_id;
            reg.next_id += prepared.len() as u64;
            base
        };

        // Forward the cache misses outside the lock — placement does
        // network I/O; hits never leave this process.
        let mut placements: Vec<Option<(usize, u64)>> = vec![None; prepared.len()];
        for (k, p) in prepared.iter().enumerate() {
            if p.hit.is_some() {
                continue;
            }
            let id = base + k as u64;
            match self.place(id, &p.forward, None) {
                Some((w, remote)) => placements[k] = Some((w, remote)),
                None => {
                    // Roll back the prefix: best-effort cancel remotely,
                    // nothing was registered locally yet.
                    for (w, remote) in placements.iter().flatten() {
                        let _ = self.workers[*w].client.cancel(*remote);
                    }
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Unavailable(
                        "no worker accepted the job (fleet down or refusing)".into(),
                    ));
                }
            }
        }

        let mut reg = self.registry.lock().expect("coord registry poisoned");
        if reg.draining {
            // Drain began while we were forwarding; its completion scan
            // may already have passed, so refuse rather than strand jobs.
            for (w, remote) in placements.iter().flatten() {
                let _ = self.workers[*w].client.cancel(*remote);
            }
            return Err(SubmitError::ShuttingDown);
        }
        let mut ids = Vec::with_capacity(prepared.len());
        for (k, p) in prepared.into_iter().enumerate() {
            let id = base + k as u64;
            if let Some(cached) = p.hit {
                // Admission hit: mint the terminal document locally with
                // the stored result bytes under this submission's label.
                let body = hit_status(id, &p.label, p.key, &cached);
                reg.jobs.insert(
                    id,
                    CoordJob {
                        label: p.label,
                        resubmit: p.resubmit,
                        key: p.key,
                        mode: p.mode,
                        state: CoordState::Done {
                            kind: cached.kind.to_owned(),
                            body,
                            at: None,
                        },
                    },
                );
                reg.completed += 1;
                reg.done_order.push_back(id);
                while reg.done_order.len() > self.cache_entries {
                    let evicted = reg.done_order.pop_front().expect("non-empty");
                    reg.jobs.remove(&evicted);
                }
                fts_telemetry::counter("coordinator.jobs.completed", 1);
            } else {
                let (worker, remote) = placements[k].expect("miss was placed above");
                reg.jobs.insert(
                    id,
                    CoordJob {
                        label: p.label,
                        resubmit: p.resubmit,
                        key: p.key,
                        mode: p.mode,
                        state: CoordState::Routed {
                            worker,
                            remote,
                            attempts: 1,
                        },
                    },
                );
            }
            ids.push(id);
        }
        Ok(ids)
    }

    /// `POST /v1/jobs`: validate the whole manifest locally, then
    /// forward job-by-job.
    fn submit_manifest(&self, body: &str) -> Result<Vec<u64>, SubmitError> {
        let mut manifest = BatchManifest::parse(body).map_err(SubmitError::Invalid)?;
        let mut built = Vec::with_capacity(manifest.jobs.len());
        for (k, spec) in manifest.jobs.iter().enumerate() {
            built.push(build_job(self.builder.as_ref(), spec, k).map_err(SubmitError::Invalid)?);
        }
        let width = manifest.ensemble_width;
        let prepared = manifest
            .jobs
            .iter_mut()
            .enumerate()
            .map(|(k, spec)| {
                // Pin the label before forwarding: the worker would
                // otherwise re-default it from its own (index 0) view.
                spec.label = Some(spec.label_or_default(k));
                // The validation build doubles as the canonicalizer
                // input: the key is label-independent, so pinning the
                // label after building does not change it.
                let key = cache_key(&built[k].job, built[k].out, spec.waveform);
                let hit = spec.cache.reads().then(|| self.cache.lookup(key)).flatten();
                let single = single_job_manifest(spec, width);
                Prepared {
                    label: spec.label.clone().expect("just set"),
                    resubmit: Some(single.clone()),
                    forward: single,
                    key,
                    mode: spec.cache,
                    hit,
                }
            })
            .collect();
        self.submit_prepared(prepared)
    }

    /// `POST /v1/decks`: validate locally, forward the raw deck to one
    /// worker (a deck's analyses must share their elaborated netlist, so
    /// the deck is never split). Single-analysis decks can be re-routed
    /// as a deck; multi-analysis decks fail closed on worker death
    /// rather than re-running sibling analyses.
    fn submit_deck(&self, deck: &str) -> Result<Vec<u64>, SubmitError> {
        let subs = crate::service::deck_submissions(deck).map_err(SubmitError::Invalid)?;
        if subs.is_empty() {
            return Err(SubmitError::Invalid(WireError::manifest(
                "empty_manifest",
                "no jobs to admit",
            )));
        }
        let labels: Vec<String> = subs.iter().map(|s| s.label.clone()).collect();
        // Decks route whole (shared elaborated netlist), so there is no
        // per-analysis hit short-circuit — but completions still populate
        // the cache through `close_done`, so the keys are recorded.
        let keys: Vec<CacheKey> = subs
            .iter()
            .map(|s| cache_key(&s.job, s.out, s.waveform))
            .collect();

        let base = {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            if reg.draining {
                return Err(SubmitError::ShuttingDown);
            }
            let base = reg.next_id;
            reg.next_id += labels.len() as u64;
            base
        };

        // One placement decision for the whole deck, keyed by its first id.
        for w in self.placement_order(base) {
            match self.workers[w].client.submit_deck(deck) {
                Ok(remotes) if remotes.len() == labels.len() => {
                    self.deck_registered(base, &labels, &keys, w, &remotes, deck);
                    return Ok((base..base + labels.len() as u64).collect());
                }
                Ok(remotes) => {
                    // Unexpected job count: recall the accepted jobs
                    // before trying the next candidate.
                    for r in remotes {
                        let _ = self.workers[w].client.cancel(r);
                    }
                    continue;
                }
                Err(ClientError::Api(_)) => continue,
                Err(_) => {
                    self.mark_down(w);
                    continue;
                }
            }
        }
        self.rejected.fetch_add(1, Ordering::Relaxed);
        Err(SubmitError::Unavailable(
            "no worker accepted the deck (fleet down or refusing)".into(),
        ))
    }

    /// Registers a successfully forwarded deck's jobs.
    fn deck_registered(
        &self,
        base: u64,
        labels: &[String],
        keys: &[CacheKey],
        worker: usize,
        remotes: &[u64],
        deck: &str,
    ) {
        self.workers[worker]
            .routed
            .fetch_add(labels.len() as u64, Ordering::Relaxed);
        let resubmit = (labels.len() == 1).then(|| deck.to_owned());
        let mut reg = self.registry.lock().expect("coord registry poisoned");
        for (k, (label, &remote)) in labels.iter().zip(remotes).enumerate() {
            reg.jobs.insert(
                base + k as u64,
                CoordJob {
                    label: label.clone(),
                    resubmit: resubmit.clone(),
                    key: keys[k],
                    mode: CacheMode::Default,
                    state: CoordState::Routed {
                        worker,
                        remote,
                        attempts: 1,
                    },
                },
            );
        }
    }

    /// `GET /v1/jobs/{id}`: cached terminal body, or a live proxy to the
    /// owning worker with the remote id rewritten to the global one. A
    /// dead or amnesiac worker triggers a re-route.
    fn status_json(&self, id: u64) -> Option<String> {
        let (worker, remote, label) = {
            let reg = self.registry.lock().expect("coord registry poisoned");
            let job = reg.jobs.get(&id)?;
            match &job.state {
                CoordState::Done { body, .. } => return Some(body.clone()),
                // Another thread is re-placing it right now.
                CoordState::Rerouting { .. } => {
                    return Some(synthetic_status(id, &job.label, "queued"));
                }
                // No valid remote id exists: skip the status fetch and
                // go straight to re-placement.
                CoordState::Stranded { .. } => {
                    let label = job.label.clone();
                    drop(reg);
                    return Some(self.reroute(id, None, &label));
                }
                CoordState::Routed { worker, remote, .. } => (*worker, *remote, job.label.clone()),
            }
        };

        match self.workers[worker].client.status(remote) {
            Ok(body) => {
                let body = rewrite_id(&body, remote, id);
                if body.contains("\"status\":\"done\"") {
                    self.complete(id, worker, remote, &body);
                }
                Some(body)
            }
            Err(ClientError::Api(e)) if e.status == 404 => {
                // The worker restarted (fresh registry) or evicted the
                // row before we read it: re-run elsewhere.
                Some(self.reroute(id, Some(worker), &label))
            }
            Err(ClientError::Api(_)) => Some(synthetic_status(id, &label, "routed")),
            Err(_) => {
                self.mark_down(worker);
                Some(self.reroute(id, Some(worker), &label))
            }
        }
    }

    /// Installs a terminal row for `id` in a registry the caller holds
    /// locked, bumping the completion gauge and applying the
    /// `cache_entries` done-row eviction exactly like the single-process
    /// server. Returns whether this call won the transition (a job
    /// already terminal, or evicted, is left alone).
    ///
    /// Real completions (`at` is `Some`) also populate the coordinator's
    /// result cache: the `result` bytes are lifted out of the proxied
    /// document verbatim — never parse → re-render, byte identity is the
    /// cache contract.
    fn close_done(
        &self,
        reg: &mut CoordRegistry,
        id: u64,
        kind: &str,
        body: String,
        at: Option<(usize, u64)>,
    ) -> bool {
        let Some(job) = reg.jobs.get_mut(&id) else {
            return false;
        };
        if matches!(job.state, CoordState::Done { .. }) {
            return false; // A concurrent poll won the transition.
        }
        if at.is_some() && job.mode.writes() {
            // Only deterministic successes are cacheable; the static tag
            // doubles as the success gate.
            let cacheable: Option<&'static str> = match kind {
                "op" => Some("op"),
                "sweep" => Some("sweep"),
                "transient" => Some("transient"),
                "ac" => Some("ac"),
                _ => None,
            };
            if let Some(tag) = cacheable {
                if let Some(result) = result_bytes(&body) {
                    let attempts = attempts_in(&body).unwrap_or(1);
                    self.cache.insert(job.key, tag, result.to_owned(), attempts);
                }
            }
        }
        job.state = CoordState::Done {
            kind: kind.to_owned(),
            body,
            at,
        };
        reg.completed += 1;
        reg.done_order.push_back(id);
        while reg.done_order.len() > self.cache_entries {
            let evicted = reg.done_order.pop_front().expect("non-empty");
            reg.jobs.remove(&evicted);
        }
        true
    }

    /// Transitions a routed job to Done with its cached body.
    fn complete(&self, id: u64, worker: usize, remote: u64, body: &str) {
        let kind = Json::parse(body)
            .ok()
            .and_then(|d| d.get("kind").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned());
        let mut reg = self.registry.lock().expect("coord registry poisoned");
        if self.close_done(&mut reg, id, &kind, body.to_owned(), Some((worker, remote))) {
            fts_telemetry::counter("coordinator.jobs.completed", 1);
        }
    }

    /// Closes `id` as a terminal cancelled row — used when a cancel was
    /// acknowledged but no reachable worker holds the job, so the
    /// cancellation must be recorded here or re-routing would resurrect
    /// the job the client was told is dead.
    fn close_cancelled(&self, reg: &mut CoordRegistry, id: u64, label: &str) {
        let body = synthetic_cancelled(id, label);
        if self.close_done(reg, id, "cancelled", body, None) {
            fts_telemetry::counter("coordinator.jobs.cancelled_closed", 1);
        }
    }

    /// Re-places job `id` after its owning worker died or forgot it
    /// (`failed = Some(w)`), or after an earlier attempt left it
    /// stranded with no placement at all (`failed = None`). Returns the
    /// status body to serve right now.
    ///
    /// Placement does network I/O — each dead candidate can burn a full
    /// connect timeout — so the job is *claimed* under the registry lock
    /// (state → `Rerouting`), placed with the lock released, and the
    /// outcome committed under the lock again. Concurrent polls answer
    /// a synthetic `queued` row instead of stalling every endpoint
    /// behind the lock, and a cancel that lands mid-placement wins: the
    /// commit sees the terminal state and recalls the fresh placement.
    fn reroute(&self, id: u64, failed: Option<usize>, label: &str) -> String {
        // Phase 1: claim the job (or close it out) under the lock.
        let manifest = {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            let Some(job) = reg.jobs.get_mut(&id) else {
                return synthetic_status(id, label, "routed");
            };
            let attempts = match &job.state {
                CoordState::Done { body, .. } => return body.clone(),
                // Another thread owns the re-placement.
                CoordState::Rerouting { .. } => return synthetic_status(id, label, "queued"),
                CoordState::Routed {
                    worker, attempts, ..
                } => {
                    if failed != Some(*worker) {
                        // Another thread already re-routed it.
                        return synthetic_status(id, label, "routed");
                    }
                    *attempts
                }
                CoordState::Stranded { attempts } => *attempts,
            };
            let closed: Option<String> = if attempts >= self.route_attempts {
                Some(synthetic_failed(
                    id,
                    label,
                    &format!("worker unavailable after {attempts} route attempts"),
                ))
            } else if job.resubmit.is_none() {
                let died = failed.map_or_else(
                    || "a worker".to_owned(),
                    |w| format!("worker {}", self.workers[w].addr),
                );
                Some(synthetic_failed(
                    id,
                    label,
                    &format!(
                        "{died} died holding a multi-analysis deck job, which cannot \
                         be re-routed standalone"
                    ),
                ))
            } else {
                None
            };
            if let Some(body) = closed {
                self.close_done(&mut reg, id, "failed", body.clone(), None);
                fts_telemetry::counter("coordinator.jobs.failed_closed", 1);
                return body;
            }
            let manifest = job.resubmit.clone().expect("checked above");
            job.state = CoordState::Rerouting { attempts };
            manifest
        };

        // Phase 2: place with the lock released.
        let is_deck = !manifest.trim_start().starts_with('{');
        let placed = if is_deck {
            self.placement_order(id)
                .into_iter()
                .filter(|&w| Some(w) != failed)
                .find_map(|w| match self.workers[w].client.submit_deck(&manifest) {
                    Ok(remotes) if remotes.len() == 1 => Some((w, remotes[0])),
                    Ok(remotes) => {
                        for r in remotes {
                            let _ = self.workers[w].client.cancel(r);
                        }
                        None
                    }
                    Err(ClientError::Api(_)) => None,
                    Err(_) => {
                        self.mark_down(w);
                        None
                    }
                })
        } else {
            self.place(id, &manifest, failed)
        };

        // Phase 3: commit. A placement that lost a race to a terminal
        // transition (cancel, eviction) is recalled after unlocking.
        let (body, recall) = {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            match reg.jobs.get_mut(&id) {
                None => (synthetic_status(id, label, "routed"), placed),
                Some(job) => match &job.state {
                    CoordState::Rerouting { attempts } => {
                        let attempts = *attempts;
                        match placed {
                            Some((w, remote)) => {
                                fts_telemetry::counter("coordinator.jobs.rerouted", 1);
                                job.state = CoordState::Routed {
                                    worker: w,
                                    remote,
                                    attempts: attempts + 1,
                                };
                                // The job restarted from scratch: report queued.
                                (synthetic_status(id, label, "queued"), None)
                            }
                            None => {
                                // Nobody can take it right now; park it
                                // with no remote id and let the next poll
                                // (or the prober flipping a worker back
                                // up) retry. Burn one attempt so this
                                // terminates.
                                job.state = CoordState::Stranded {
                                    attempts: attempts + 1,
                                };
                                (synthetic_status(id, label, "queued"), None)
                            }
                        }
                    }
                    CoordState::Done { body, .. } => (body.clone(), placed),
                    // Unreachable — only the claiming thread commits —
                    // but recall the placement rather than leak it.
                    CoordState::Routed { .. } | CoordState::Stranded { .. } => {
                        (synthetic_status(id, label, "routed"), placed)
                    }
                },
            }
        };
        if let Some((w, remote)) = recall {
            let _ = self.workers[w].client.cancel(remote);
        }
        body
    }

    /// `DELETE /v1/jobs/{id}`: proxy the cancel to the owning worker.
    /// An acknowledged cancel is binding: when the owning worker never
    /// hears it (unreachable, or the job currently has no placement at
    /// all), the job is closed out as a terminal cancelled row here, so
    /// the re-route path can never re-run a job the client was told is
    /// cancelled.
    fn cancel(&self, id: u64) -> Option<String> {
        enum Target {
            AlreadyDone,
            Worker(usize, u64, String),
            ClosedLocally,
        }
        let target = {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            let job = reg.jobs.get(&id)?;
            match &job.state {
                CoordState::Done { .. } => Target::AlreadyDone,
                CoordState::Routed { worker, remote, .. } => {
                    Target::Worker(*worker, *remote, job.label.clone())
                }
                // No reachable placement to forward the cancel to.
                CoordState::Stranded { .. } | CoordState::Rerouting { .. } => {
                    let label = job.label.clone();
                    self.close_cancelled(&mut reg, id, &label);
                    Target::ClosedLocally
                }
            }
        };
        let (worker, remote, label) = match target {
            Target::AlreadyDone => {
                return Some(format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"cancelled\":true,\"was\":\"done\"}}"
                ));
            }
            Target::ClosedLocally => {
                return Some(format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"cancelled\":true,\"was\":\"routed\"}}"
                ));
            }
            Target::Worker(worker, remote, label) => (worker, remote, label),
        };
        match self.workers[worker].client.cancel(remote) {
            Ok(body) => Some(rewrite_id(&body, remote, id)),
            Err(e) => {
                if !matches!(e, ClientError::Api(_)) {
                    self.mark_down(worker);
                }
                // The worker never heard the cancel: record it in the
                // registry so the job is never re-routed. If another
                // thread moved the job to a fresh placement mid-cancel,
                // the acknowledgment binds there instead — forward it.
                enum After {
                    CloseLocal,
                    Forward(usize, u64),
                    Leave,
                }
                let mut reg = self.registry.lock().expect("coord registry poisoned");
                let after = match reg.jobs.get(&id).map(|j| &j.state) {
                    Some(CoordState::Routed {
                        worker: w,
                        remote: r,
                        ..
                    }) => {
                        if (*w, *r) == (worker, remote) {
                            After::CloseLocal
                        } else {
                            After::Forward(*w, *r)
                        }
                    }
                    Some(CoordState::Stranded { .. } | CoordState::Rerouting { .. }) => {
                        After::CloseLocal
                    }
                    Some(CoordState::Done { .. }) | None => After::Leave,
                };
                match after {
                    After::CloseLocal => self.close_cancelled(&mut reg, id, &label),
                    After::Forward(w, r) => {
                        drop(reg);
                        let _ = self.workers[w].client.cancel(r);
                    }
                    After::Leave => {}
                }
                Some(format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"cancelled\":true,\"was\":\"routed\"}}"
                ))
            }
        }
    }

    /// `GET /v1/jobs/{id}/trace`: proxy to wherever the job lives (or
    /// last lived), passing the worker's status and body through.
    fn trace(&self, id: u64, chrome: bool) -> Option<Response> {
        let (worker, remote) = {
            let reg = self.registry.lock().expect("coord registry poisoned");
            let job = reg.jobs.get(&id)?;
            match &job.state {
                CoordState::Routed { worker, remote, .. } => (*worker, *remote),
                CoordState::Done {
                    at: Some((w, r)), ..
                } => (*w, *r),
                // Never ran anywhere we can still reach — no trace.
                CoordState::Done { at: None, .. }
                | CoordState::Stranded { .. }
                | CoordState::Rerouting { .. } => return None,
            }
        };
        let path = if chrome {
            format!("/v1/jobs/{remote}/trace?format=chrome")
        } else {
            format!("/v1/jobs/{remote}/trace")
        };
        match self.workers[worker].client.call("GET", &path, None) {
            Ok(resp) => Some(Response::Json {
                status: resp.status,
                reason: if resp.status == 200 {
                    "OK"
                } else {
                    "Not Found"
                },
                body: rewrite_id(&resp.body, remote, id),
            }),
            Err(_) => None,
        }
    }

    /// `GET /v1/jobs` over the coordinator's registry: states are
    /// `routed` (live on a worker) and `done`; rows carry the owning
    /// worker's address.
    fn list_json(&self, state: Option<&str>, cursor: Option<u64>, limit: usize) -> String {
        let reg = self.registry.lock().expect("coord registry poisoned");
        let mut ids: Vec<u64> = reg.jobs.keys().copied().collect();
        ids.sort_unstable();
        let mut rows = Vec::new();
        let mut truncated = false;
        let mut last_id = None;
        for id in ids {
            if let Some(c) = cursor {
                if id <= c {
                    continue;
                }
            }
            let job = &reg.jobs[&id];
            let (status, kind, worker) = match &job.state {
                CoordState::Routed { worker, .. } => ("routed", None, Some(*worker)),
                // In flight but between placements: still "routed" to
                // the client, with no worker attribution.
                CoordState::Stranded { .. } | CoordState::Rerouting { .. } => {
                    ("routed", None, None)
                }
                CoordState::Done { kind, at, .. } => {
                    ("done", Some(kind.clone()), at.map(|(w, _)| w))
                }
            };
            if state.is_some_and(|want| want != status) {
                continue;
            }
            if rows.len() == limit {
                truncated = true;
                break;
            }
            let mut row = format!(
                "{{\"id\":{id},\"label\":\"{}\",\"status\":\"{status}\"",
                json_escape(&job.label),
            );
            if let Some(w) = worker {
                row.push_str(&format!(
                    ",\"worker\":\"{}\"",
                    json_escape(&self.workers[w].addr)
                ));
            }
            if let Some(kind) = kind {
                row.push_str(&format!(",\"kind\":\"{}\"", json_escape(&kind)));
            }
            row.push('}');
            rows.push(row);
            last_id = Some(id);
        }
        crate::service::list_page_json(&rows, truncated, last_id)
    }

    /// One prober pass: `/healthz` every worker, flip the flags.
    fn probe(&self) {
        for w in &self.workers {
            let alive = w.client.healthz().is_ok();
            let was = w.up.swap(alive, Ordering::SeqCst);
            if was != alive {
                fts_telemetry::counter(
                    if alive {
                        "coordinator.workers.recovered"
                    } else {
                        "coordinator.workers.marked_down"
                    },
                    1,
                );
            }
        }
    }

    /// Ids of jobs not yet terminal.
    fn open_jobs(&self) -> Vec<u64> {
        let reg = self.registry.lock().expect("coord registry poisoned");
        let mut ids: Vec<u64> = reg
            .jobs
            .iter()
            .filter(|(_, j)| !matches!(j.state, CoordState::Done { .. }))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Drain: mark draining, poll every routed job to completion
    /// (rerouting around dead workers as usual), then cascade shutdown
    /// to the fleet when configured. Terminates because every poll of an
    /// unreachable job burns one of its bounded route attempts.
    fn drain(&self, cascade: bool) {
        {
            let mut reg = self.registry.lock().expect("coord registry poisoned");
            reg.draining = true;
        }
        loop {
            let open = self.open_jobs();
            if open.is_empty() {
                break;
            }
            for id in open {
                let _ = self.status_json(id);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if cascade {
            for w in &self.workers {
                let _ = w.client.shutdown();
            }
        }
    }

    fn healthz(&self, started: Instant) -> String {
        let g = self.gauges();
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"status\":\"ok\",\"role\":\"coordinator\",\
             \"uptime_s\":{:.3},\"workers\":{{\"total\":{},\"up\":{}}},\
             \"jobs\":{{\"routed\":{},\"completed\":{},\"rejected\":{},\"done_retained\":{}}}}}",
            started.elapsed().as_secs_f64(),
            self.workers.len(),
            g.workers_up,
            g.routed,
            g.completed,
            g.rejected,
            g.done_retained,
        )
    }

    /// `GET /v1/cache`: fleet-wide aggregate stats at the top level
    /// (coordinator + every reachable worker, fanned out over the wire),
    /// with the coordinator's own counters and a per-worker breakdown
    /// nested alongside.
    fn cache_stats_doc(&self) -> String {
        let own = self.cache.stats();
        let mut agg = own;
        let mut rows = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let stats = w
                .client
                .cache_stats()
                .ok()
                .and_then(|body| parse_cache_stats(&body));
            match stats {
                Some(s) => {
                    agg.entries += s.entries;
                    agg.bytes += s.bytes;
                    agg.hits += s.hits;
                    agg.misses += s.misses;
                    agg.evictions += s.evictions;
                    rows.push(format!(
                        "{{\"worker\":\"{}\",{}}}",
                        json_escape(&w.addr),
                        cache_stats_fields(&s)
                    ));
                }
                None => rows.push(format!(
                    "{{\"worker\":\"{}\",\"unreachable\":true}}",
                    json_escape(&w.addr)
                )),
            }
        }
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},{},\"coordinator\":{{{}}},\"workers\":[{}]}}",
            cache_stats_fields(&agg),
            cache_stats_fields(&own),
            rows.join(","),
        )
    }

    /// `DELETE /v1/cache`: flush the coordinator's own cache, then fan
    /// the flush out to every worker (best effort — an unreachable
    /// worker flushes on its next restart anyway).
    fn cache_flush_doc(&self) -> String {
        self.cache.flush();
        let mut flushed = 1usize;
        for w in &self.workers {
            if w.client.cache_flush().is_ok() {
                flushed += 1;
            }
        }
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"flushed\":true,\"nodes\":{flushed}}}")
    }

    fn render_metrics(&self, metrics: &HttpMetrics) -> String {
        use std::fmt::Write as _;
        let g = self.gauges();
        let mut out = String::with_capacity(2048);
        out.push_str("# fts-coordinator metrics (schema_version 1)\n");
        let _ = writeln!(out, "fts_jobs_routed {}", g.routed);
        let _ = writeln!(out, "fts_jobs_completed {}", g.completed);
        let _ = writeln!(out, "fts_submissions_rejected {}", g.rejected);
        let _ = writeln!(out, "fts_jobs_done_retained {}", g.done_retained);
        let cache = self.cache.stats();
        let _ = writeln!(out, "fts_cache_entries {}", cache.entries);
        let _ = writeln!(out, "fts_cache_bytes {}", cache.bytes);
        let _ = writeln!(out, "fts_cache_hits_total {}", cache.hits);
        let _ = writeln!(out, "fts_cache_misses_total {}", cache.misses);
        let _ = writeln!(out, "fts_cache_evictions_total {}", cache.evictions);
        let _ = writeln!(out, "fts_cache_hit_ratio {}", prom_num(cache.hit_ratio()));
        let _ = writeln!(out, "fts_coordinator_workers {}", self.workers.len());
        for w in &self.workers {
            let up = u8::from(w.up.load(Ordering::SeqCst));
            let _ = writeln!(
                out,
                "fts_coordinator_worker_up{{worker=\"{}\"}} {up}",
                prom_escape(&w.addr)
            );
            let _ = writeln!(
                out,
                "fts_coordinator_worker_routed_total{{worker=\"{}\"}} {}",
                prom_escape(&w.addr),
                w.routed.load(Ordering::Relaxed)
            );
        }
        render_http_series(&mut out, metrics);
        render_telemetry_series(&mut out);
        out
    }
}

/// Rewrites the *first* `"id":<from>` member in a worker document to the
/// coordinator-global id. Safe by construction: every proxied document's
/// own id precedes any embedded payload (`job` rows carry labels and
/// results but no bare `"id"` member), so the first match is always the
/// document id — and the embedded `result` bytes are untouched, which is
/// what keeps served results byte-identical to `fts batch`.
fn rewrite_id(body: &str, from: u64, to: u64) -> String {
    let needle = format!("\"id\":{from}");
    match body.find(&needle) {
        Some(at) => {
            let mut out = String::with_capacity(body.len() + 8);
            out.push_str(&body[..at]);
            out.push_str(&format!("\"id\":{to}"));
            out.push_str(&body[at + needle.len()..]);
            out
        }
        None => body.to_owned(),
    }
}

/// The terminal document for an admission-time cache hit: the same outer
/// shape as a proxied worker completion, with the stored `result` bytes
/// embedded verbatim and `cache.hit` true.
fn hit_status(id: u64, label: &str, key: CacheKey, cached: &CachedResult) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"status\":\"done\",\"kind\":\"{}\",\
         \"job\":{{\"label\":\"{}\",\"kind\":\"{}\",\"wall_s\":0,\"attempts\":{},\"result\":{}{}}}}}",
        cached.kind,
        json_escape(label),
        cached.kind,
        cached.attempts,
        cached.result_json,
        cache_member_json(key, true),
    )
}

/// The raw bytes of the first `"result":{...}` object in a status
/// document, exactly as serialized — the substring is lifted without a
/// JSON round-trip so a cached copy stays byte-identical to the
/// original. Labels cannot spoof the needle: they are JSON-escaped, so
/// an embedded quote can never form a bare `"result":` inside a string.
fn result_bytes(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")? + "\"result\":".len();
    json_object_at(body, at)
}

/// Brace-matches one JSON object starting at `start`, skipping braces
/// inside string literals (escape-aware).
fn json_object_at(body: &str, start: usize) -> Option<&str> {
    let bytes = body.as_bytes();
    if *bytes.get(start)? != b'{' {
        return None;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The `"attempts":N` count quoted in a done document's job row.
fn attempts_in(body: &str) -> Option<usize> {
    let at = body.find("\"attempts\":")? + "\"attempts\":".len();
    let digits = body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// Decodes a worker's `GET /v1/cache` body back into [`CacheStats`].
fn parse_cache_stats(body: &str) -> Option<CacheStats> {
    let doc = Json::parse(body).ok()?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64);
    Some(CacheStats {
        entries: num("entries")? as usize,
        bytes: num("bytes")? as usize,
        hits: num("hits")? as u64,
        misses: num("misses")? as u64,
        evictions: num("evictions")? as u64,
    })
}

/// Renders the shared stats members (no braces) for cache documents.
fn cache_stats_fields(s: &CacheStats) -> String {
    format!(
        "\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_ratio\":{}",
        s.entries,
        s.bytes,
        s.hits,
        s.misses,
        s.evictions,
        json_f64(s.hit_ratio()),
    )
}

fn synthetic_status(id: u64, label: &str, status: &str) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"label\":\"{}\",\"status\":\"{status}\"}}",
        json_escape(label)
    )
}

/// The terminal row for a job cancelled while it had no reachable
/// placement: same outer shape as a worker's own cancelled document,
/// so pollers terminate and listing reports `kind:"cancelled"`.
fn synthetic_cancelled(id: u64, label: &str) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"status\":\"done\",\"kind\":\"cancelled\",\
         \"job\":{{\"label\":\"{}\",\"result\":{{\"kind\":\"cancelled\"}}}}}}",
        json_escape(label)
    )
}

/// The terminal row for a job the fleet could not finish: same outer
/// shape as a real done document, with a `failed` result carrying the
/// reason — so `wait`-style pollers terminate instead of spinning.
fn synthetic_failed(id: u64, label: &str, reason: &str) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"status\":\"done\",\"kind\":\"failed\",\
         \"job\":{{\"label\":\"{}\",\"result\":{{\"kind\":\"failed\",\"error\":\"{}\"}}}}}}",
        json_escape(label),
        json_escape(reason)
    )
}

impl HttpApp for CoordService {
    fn route(
        &self,
        request: &Request,
        stop: &AtomicBool,
        metrics: &HttpMetrics,
        started: Instant,
    ) -> Result<Response, HttpError> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => json_ok(self.healthz(started)),
            ("GET", "/metrics") => Ok(Response::Text {
                body: self.render_metrics(metrics),
            }),
            ("POST", "/v1/jobs") => Ok(admission_response(self.submit_manifest(&request.body))),
            ("POST", "/v1/decks") => Ok(admission_response(self.submit_deck(&request.body))),
            ("GET", "/v1/cache") => json_ok(self.cache_stats_doc()),
            ("DELETE", "/v1/cache") => json_ok(self.cache_flush_doc()),
            ("GET", "/v1/jobs") => match list_params(request) {
                Ok((state, cursor, limit)) => json_ok(self.list_json(state, cursor, limit)),
                Err(e) => Ok(wire_error_response(&e)),
            },
            ("POST", "/v1/shutdown") => {
                stop.store(true, Ordering::SeqCst);
                json_ok(format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"shutting_down\":true}}"
                ))
            }
            (method, path) if path.starts_with("/v1/jobs/") => {
                let rest = &path["/v1/jobs/".len()..];
                if let Some(id) = rest.strip_suffix("/trace") {
                    if method != "GET" {
                        return Err(HttpError::MethodNotAllowed);
                    }
                    let id: u64 = id
                        .parse()
                        .map_err(|_| HttpError::BadRequest(format!("bad job id in {path:?}")))?;
                    let chrome = request.query_param("format") == Some("chrome");
                    return self.trace(id, chrome).ok_or(HttpError::NotFound);
                }
                let id: u64 = rest
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad job id in {path:?}")))?;
                match method {
                    "GET" => self
                        .status_json(id)
                        .map_or(Err(HttpError::NotFound), json_ok),
                    "DELETE" => self.cancel(id).map_or(Err(HttpError::NotFound), json_ok),
                    _ => Err(HttpError::MethodNotAllowed),
                }
            }
            (
                _,
                "/healthz" | "/metrics" | "/v1/jobs" | "/v1/decks" | "/v1/cache" | "/v1/shutdown",
            ) => Err(HttpError::MethodNotAllowed),
            _ => Err(HttpError::NotFound),
        }
    }
}

/// The bound-but-not-yet-running coordinator.
pub struct Coordinator {
    listener: std::net::TcpListener,
    service: Arc<CoordService>,
    config: CoordinatorConfig,
    stop: Arc<AtomicBool>,
}

impl Coordinator {
    /// Binds the coordinator's listener and builds the fleet view.
    /// `builder` is used for *validation only* — the coordinator never
    /// runs a job itself.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty worker list; socket errors from
    /// binding `config.addr`.
    pub fn bind(
        config: CoordinatorConfig,
        builder: Arc<dyn JobBuilder>,
    ) -> std::io::Result<Coordinator> {
        if config.workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a coordinator needs at least one worker address",
            ));
        }
        fts_telemetry::set_enabled(true);
        let listener = bind_addr(&config.addr)?;
        let service = Arc::new(CoordService::new(&config, builder));
        Ok(Coordinator {
            listener,
            service,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket errors querying the listener.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(Arc::clone(&self.stop))
    }

    /// Runs the coordinator until shutdown, then drains (and cascades to
    /// the fleet when configured) and returns the final report.
    ///
    /// # Errors
    ///
    /// Socket errors configuring the listener; per-connection accept
    /// errors are absorbed.
    pub fn run(self) -> std::io::Result<ShutdownReport> {
        let start = Instant::now();
        signal::install_sigint();
        self.listener.set_nonblocking(true)?;

        let rejected_conns = AtomicU64::new(0);
        let http_metrics = HttpMetrics::default();
        let conn_queue = new_conn_queue();

        let report = std::thread::scope(|scope| {
            // Health prober: wakes every probe_interval until shutdown.
            {
                let service = Arc::clone(&self.service);
                let stop = Arc::clone(&self.stop);
                // Floor the interval: zero would turn the prober into a
                // busy loop hammering every worker's /healthz.
                let interval = self.config.probe_interval.max(Duration::from_millis(1));
                scope.spawn(move || {
                    while !stop.load(Ordering::SeqCst) && !signal::sigint_received() {
                        service.probe();
                        let mut slept = Duration::ZERO;
                        while slept < interval && !stop.load(Ordering::SeqCst) {
                            let step = Duration::from_millis(10).min(interval - slept);
                            std::thread::sleep(step);
                            slept += step;
                        }
                    }
                });
            }
            spawn_conn_workers(
                scope,
                self.config.conn_workers,
                &conn_queue,
                self.service.as_ref(),
                &self.stop,
                &self.config.limits,
                &http_metrics,
                start,
            );

            accept_loop(
                &self.listener,
                &self.stop,
                &conn_queue,
                self.config.conn_backlog,
                &self.config.limits,
                &rejected_conns,
            );

            // Drain ordering: close the conn queue (queued connections
            // still get answers), flip stop (prober exits), empty the
            // coordinator, then cascade to the fleet.
            close_conn_queue(&conn_queue);
            self.stop.store(true, Ordering::SeqCst);
            self.service.drain(self.config.cascade);

            let g = self.service.gauges();
            ShutdownReport {
                jobs_completed: g.completed,
                submissions_rejected: g.rejected,
                connections_rejected: rejected_conns.load(Ordering::Relaxed),
                uptime_s: start.elapsed().as_secs_f64(),
                telemetry: fts_telemetry::snapshot().render_tree(),
            }
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_id_touches_only_the_first_document_id() {
        let body = "{\"schema_version\":1,\"id\":3,\"status\":\"done\",\"kind\":\"op\",\
                    \"job\":{\"label\":\"x\",\"result\":{\"out_v\":1.0,\"id_like\":\"\\\"id\\\":3\"}}}";
        let out = rewrite_id(body, 3, 41);
        assert!(out.starts_with("{\"schema_version\":1,\"id\":41,"), "{out}");
        // The embedded result bytes are untouched.
        assert!(out.contains("\"result\":{\"out_v\":1.0,"), "{out}");
        // A body without the remote id passes through unchanged.
        assert_eq!(rewrite_id("{\"x\":1}", 3, 41), "{\"x\":1}");
    }

    #[test]
    fn synthetic_failed_is_a_terminal_done_document() {
        let body = synthetic_failed(7, "lat\"tice", "worker gone");
        let doc = Json::parse(&body).expect("synthetic row parses");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("failed"));
        let result = doc.get("job").and_then(|j| j.get("result")).unwrap();
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("failed"));
        assert!(result
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("worker gone"));
    }

    #[test]
    fn empty_worker_list_refuses_to_bind() {
        struct Never;
        impl JobBuilder for Never {
            fn build(
                &self,
                _spec: &crate::wire::JobSpec,
                index: usize,
            ) -> Result<crate::service::BuiltJob, WireError> {
                Err(WireError::job("unknown_function", index, "never"))
            }
        }
        let cfg = CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            ..CoordinatorConfig::default()
        };
        let Err(err) = Coordinator::bind(cfg, Arc::new(Never)) else {
            panic!("bind must refuse an empty worker list");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
