//! Seeded workload inputs: application graphs, churn event streams and
//! one-shot solve scenarios.
//!
//! Everything here is drawn from the run's `--seed` and generated
//! before the first timed operation, so the same seed replays the same
//! inputs bit for bit and the program under test only ever sees
//! finished inputs.

use mec_graph::Graph;
use mec_model::{Scenario, SystemParams, UserWorkload};
use mec_netgen::{NetgenError, NetgenSpec};
use std::sync::Arc;

/// splitmix64: a tiny, fully specified generator, so an event stream is
/// reproducible from its seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n` is clamped to at least 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Edge count for `nodes` functions at the density of the paper's
/// Table I: linear between the published `(nodes, edges)` rows, and at
/// the density of the nearest row outside them.
pub fn table1_edges(nodes: usize) -> usize {
    let rows = NetgenSpec::table1_rows();
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    if nodes <= first.0 {
        return nodes * first.1 / first.0;
    }
    for pair in rows.windows(2) {
        let ((n0, e0), (n1, e1)) = (pair[0], pair[1]);
        if nodes <= n1 {
            return e0 + (e1 - e0) * (nodes - n0) / (n1 - n0);
        }
    }
    nodes * last.1 / last.0
}

/// The shape of one application graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppShape {
    /// Functions per application.
    pub nodes: usize,
    /// Connected components; `None` keeps netgen's default of one per
    /// ~125 functions.
    pub components: Option<usize>,
}

impl AppShape {
    /// Generates one graph of this shape at Table I density.
    ///
    /// # Errors
    ///
    /// Whatever [`NetgenSpec::generate`] reports for an unsatisfiable
    /// shape.
    pub fn generate(&self, seed: u64) -> Result<Graph, NetgenError> {
        let mut spec = NetgenSpec::new(self.nodes, table1_edges(self.nodes)).seed(seed);
        if let Some(c) = self.components {
            spec = spec.components(c);
        }
        spec.generate()
    }
}

/// One churn event of a stream workload.
#[derive(Debug, Clone)]
pub enum Event {
    /// A new user arrives.
    Join(String, Arc<Graph>),
    /// A present user departs.
    Leave(String),
    /// A present user re-submits a (possibly different) workload.
    Resubmit(String, Arc<Graph>),
}

/// The shape of a stream workload (`churn` or `admit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Users admitted during set-up.
    pub users: usize,
    /// Every user's application shape.
    pub app: AppShape,
    /// `Some(k)`: apps come from a pool of `k` graphs shared by the whole
    /// crowd; `None`: every admitted or re-submitted app is a fresh graph.
    pub pool: Option<usize>,
    /// Pre-drawn events; the timed loop never runs past them.
    pub events: usize,
    /// Events always run, however long they take: the prefix the
    /// deterministic outputs (objective, counts) are read at.
    pub min_events: usize,
}

/// A stream workload's inputs: the set-up crowd and the event stream.
#[derive(Debug, Clone)]
pub struct StreamInputs {
    /// The crowd admitted during set-up.
    pub crowd: Vec<(String, Arc<Graph>)>,
    /// The churn events, in the order the client sends them.
    pub events: Vec<Event>,
}

/// Seed of the inputs that are the same in every run: the shared app
/// pool of a stream workload and the warm-up scenario of `solve`.
/// `--seed` draws which app each user runs, the event stream and every
/// timed scenario, so runs at different seeds see statistically alike
/// work, and `solve`'s set-up repeats the very same work.
const FIXED_SEED: u64 = 0x00C0_FFEE;

/// Draws a stream workload's inputs from `seed`. Events come in blocks
/// of ten, each block a shuffle of 3 joins of new users, 3 leaves and 4
/// resubmits of present users: the 30/30/40 mix, with the crowd held
/// within three users of its set-up size.
///
/// # Errors
///
/// A [`NetgenError`] when the app shape cannot be generated.
pub fn stream_inputs(spec: &StreamSpec, seed: u64) -> Result<StreamInputs, NetgenError> {
    let mut pool_rng = SplitMix::new(FIXED_SEED);
    let pool: Vec<Arc<Graph>> = (0..spec.pool.unwrap_or(0))
        .map(|_| spec.app.generate(pool_rng.next_u64()).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix::new(seed);
    let app = |rng: &mut SplitMix| -> Result<Arc<Graph>, NetgenError> {
        if pool.is_empty() {
            spec.app.generate(rng.next_u64()).map(Arc::new)
        } else {
            Ok(Arc::clone(&pool[rng.below(pool.len())]))
        }
    };

    let mut crowd = Vec::with_capacity(spec.users);
    for i in 0..spec.users {
        crowd.push((format!("u{i}"), app(&mut rng)?));
    }
    let mut present: Vec<String> = crowd.iter().map(|(name, _)| name.clone()).collect();
    let mut next_user = spec.users;
    let mut events = Vec::with_capacity(spec.events);
    let mut block = Vec::new();
    for _ in 0..spec.events {
        if block.is_empty() {
            block = vec![0u8, 0, 0, 1, 1, 1, 2, 2, 2, 2];
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        let kind = block.pop().expect("refilled above");
        let event = if kind == 0 || present.is_empty() {
            let name = format!("u{next_user}");
            next_user += 1;
            present.push(name.clone());
            Event::Join(name, app(&mut rng)?)
        } else if kind == 1 {
            Event::Leave(present.swap_remove(rng.below(present.len())))
        } else {
            let name = present[rng.below(present.len())].clone();
            Event::Resubmit(name, app(&mut rng)?)
        };
        events.push(event);
    }
    Ok(StreamInputs { crowd, events })
}

/// The shape of the one-shot `solve` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveSpec {
    /// Users per scenario.
    pub users: usize,
    /// Every user's application shape.
    pub app: AppShape,
    /// Pre-generated scenarios for timed solves (one more is generated
    /// for the warm-up solve); the timed loop never runs past them.
    pub scenarios: usize,
    /// Timed solves always run: the prefix the objective is read at.
    pub min_solves: usize,
}

/// Generates the warm-up scenario, the same at every seed, followed by
/// `spec.scenarios` timed ones drawn from `seed`, each with its own
/// graphs.
///
/// # Errors
///
/// A [`NetgenError`] when the app shape cannot be generated.
pub fn solve_scenarios(spec: &SolveSpec, seed: u64) -> Result<Vec<Scenario>, NetgenError> {
    let scenario = |rng: &mut SplitMix| -> Result<Scenario, NetgenError> {
        let users = (0..spec.users)
            .map(|u| {
                let graph = spec.app.generate(rng.next_u64())?;
                Ok(UserWorkload::new(format!("u{u}"), graph))
            })
            .collect::<Result<Vec<_>, NetgenError>>()?;
        Ok(Scenario::new(SystemParams::default()).with_users(users))
    };
    let mut rng = SplitMix::new(seed);
    std::iter::once(scenario(&mut SplitMix::new(FIXED_SEED)))
        .chain((0..spec.scenarios).map(|_| scenario(&mut rng)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_exact_and_small_apps_keep_the_density() {
        assert_eq!(table1_edges(1000), 4912);
        assert_eq!(table1_edges(2000), 9578);
        assert_eq!(table1_edges(24), 116);
        assert_eq!(table1_edges(750), (2643 + 4912) / 2);
    }

    #[test]
    fn the_same_seed_draws_the_same_stream() {
        let spec = StreamSpec {
            users: 20,
            app: AppShape {
                nodes: 24,
                components: None,
            },
            pool: Some(4),
            events: 50,
            min_events: 10,
        };
        let names = |inputs: &StreamInputs| -> Vec<String> {
            inputs
                .events
                .iter()
                .map(|e| match e {
                    Event::Join(n, _) => format!("+{n}"),
                    Event::Leave(n) => format!("-{n}"),
                    Event::Resubmit(n, _) => format!("~{n}"),
                })
                .collect()
        };
        let a = stream_inputs(&spec, 7).unwrap();
        let b = stream_inputs(&spec, 7).unwrap();
        let c = stream_inputs(&spec, 8).unwrap();
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        assert_eq!(a.crowd.len(), 20);
    }
}
