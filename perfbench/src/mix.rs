//! Seeded workload inputs. Everything a run sends is a pure function of
//! `--seed`; the program only ever sees the generated jobs.

use sciduction::Budget;
use sciduction_ogis::{benchmarks, ComponentLibrary, IoOracle};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{Rng, SeedableRng};
use sciduction_server::{FigJob, JobCommon, JobSpec, SatJob};

/// Which serve workload a pool belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Cached,
    Certified,
    Isolated,
}

/// One distinct job of a serve workload, with its share of the traffic.
#[derive(Clone, Debug)]
pub struct PoolJob {
    /// Job class, for reports.
    pub class: &'static str,
    pub spec: JobSpec,
    /// How many times the job appears in each shuffled block of traffic.
    pub weight: usize,
}

fn common() -> JobCommon {
    // One thread: on two cores a portfolio race changes which member
    // wins, and with it the work done.
    JobCommon {
        threads: 1,
        fault_seed: None,
        budget: Budget::UNLIMITED,
    }
}

fn fig(name: &str, proof: bool) -> JobSpec {
    JobSpec::Fig(FigJob {
        name: name.to_string(),
        proof,
        common: common(),
    })
}

/// A random 3-SAT instance near the satisfiability threshold.
pub fn random_3sat(rng: &mut StdRng) -> (usize, Vec<Vec<i64>>) {
    let num_vars = rng.random_range(60..=90usize);
    let num_clauses = (num_vars as f64 * 4.26).round() as usize;
    let clauses = (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<i64> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.random_range(1..=num_vars as i64);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| if rng.random::<bool>() { v } else { -v })
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

/// Random 3-SAT instances per certified pool.
pub const SAT3_PER_POOL: usize = 40;

/// The distinct jobs of a serve workload. The pools are fixed and the
/// run's seed only orders the traffic (see [`sequence`]): random 3-SAT
/// costs are heavy-tailed, and drawing the instances per run moved the
/// certified p50 by 18% between seeds.
pub fn serve_pool(kind: ServeKind) -> Vec<PoolJob> {
    match kind {
        ServeKind::Cached | ServeKind::Isolated => vec![
            PoolJob {
                class: "fig8_p1",
                spec: fig("fig8_p1_equiv_w8", false),
                weight: 3,
            },
            PoolJob {
                class: "fig8_p2",
                spec: fig("fig8_p2_equiv_w8", false),
                weight: 3,
            },
            PoolJob {
                class: "fig6_infeasible",
                spec: fig("fig6_crc8_infeasible_path", false),
                weight: 1,
            },
            PoolJob {
                class: "fig6_feasible",
                spec: fig("fig6_crc8_feasible_path", false),
                weight: 1,
            },
        ],
        ServeKind::Certified => {
            let mut pool = vec![
                PoolJob {
                    class: "fig8_p1_cert",
                    spec: fig("fig8_p1_equiv_w8", true),
                    weight: 2,
                },
                PoolJob {
                    class: "fig8_p2_cert",
                    spec: fig("fig8_p2_equiv_w8", true),
                    weight: 2,
                },
                PoolJob {
                    class: "fig10_cert",
                    spec: fig("fig10_mode_exclusion", true),
                    weight: 1,
                },
            ];
            let mut rng = StdRng::seed_from_u64(0x3547_3547);
            for _ in 0..SAT3_PER_POOL {
                let (num_vars, clauses) = random_3sat(&mut rng);
                pool.push(PoolJob {
                    class: "sat3_cert",
                    spec: JobSpec::Sat(SatJob {
                        num_vars,
                        clauses,
                        proof: true,
                        common: common(),
                    }),
                    weight: 1,
                });
            }
            pool
        }
    }
}

/// A traffic sequence of pool indices for one stream: seeded shuffles of
/// one block holding every job `weight` times, as many whole blocks as
/// fit in `n` (at least one). Whole blocks carry the exact job mix
/// whatever the seed; a partial block let the seed decide how many
/// 25 ms fig10 jobs a certified history held, which moved `restart_s`
/// by 10% between seeds.
pub fn sequence(pool: &[PoolJob], n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let block: Vec<usize> = pool
        .iter()
        .enumerate()
        .flat_map(|(i, j)| std::iter::repeat_n(i, j.weight))
        .collect();
    let blocks = (n / block.len()).max(1);
    let mut rng = StdRng::seed_from_u64(seed).fork(stream);
    let mut out = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        let mut b = block.clone();
        rng.shuffle(&mut b);
        out.extend(b);
    }
    out
}

/// A benchmark program of the deobfuscation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Paper P1: the XOR swap.
    P1,
    /// Paper P2: multiply by 45.
    P2,
    /// Hacker's Delight floor average.
    AverageFloor,
}

/// One synthesis problem: a benchmark at a width with an example seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Problem {
    pub bench: Bench,
    pub width: u32,
    pub example_seed: u64,
}

impl Problem {
    pub fn label(&self) -> String {
        let name = match self.bench {
            Bench::P1 => "p1",
            Bench::P2 => "p2",
            Bench::AverageFloor => "average_floor",
        };
        format!("{name}_w{}_s{}", self.width, self.example_seed)
    }

    /// The component library and a fresh oracle for this problem.
    pub fn instance(&self) -> (ComponentLibrary, Box<dyn IoOracle>) {
        match self.bench {
            Bench::P1 => {
                let (lib, o) = benchmarks::p1_with_width(self.width);
                (lib, Box::new(o))
            }
            Bench::P2 => {
                let (lib, o) = benchmarks::p2_with_width(self.width);
                (lib, Box::new(o))
            }
            Bench::AverageFloor => {
                let (lib, o) = benchmarks::extra::average_floor(self.width);
                (lib, Box::new(o))
            }
        }
    }
}

/// The deobfuscation problem set: every benchmark at every width of its
/// range, each with a fixed example seed. The run's seed only orders the
/// problems (see [`round_order`]): the example seed sets how many CEGIS
/// iterations a problem takes, and drawing it per run moved the p90 by
/// 19% between seeds.
pub fn problems() -> Vec<Problem> {
    let mut rng = StdRng::seed_from_u64(0x0615_0615);
    let classes = [
        (Bench::P1, 8..=16u32),
        (Bench::P2, 8..=11),
        (Bench::AverageFloor, 8..=12),
    ];
    classes
        .into_iter()
        .flat_map(|(bench, widths)| widths.map(move |w| (bench, w)))
        .map(|(bench, width)| Problem {
            bench,
            width,
            example_seed: rng.random_range(1..=1_000_000u64),
        })
        .collect()
}

/// The order problems run in during round `round`.
pub fn round_order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(seed)
        .fork(0x0f8 + round)
        .shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_job_sequence() {
        for kind in [ServeKind::Cached, ServeKind::Certified, ServeKind::Isolated] {
            let wire = |p: &[PoolJob]| -> Vec<String> {
                p.iter().map(|j| j.spec.to_json().to_string()).collect()
            };
            let (a, b) = (serve_pool(kind), serve_pool(kind));
            assert_eq!(wire(&a), wire(&b));
            assert_eq!(sequence(&a, 500, 7, 1), sequence(&b, 500, 7, 1));
            assert_ne!(sequence(&a, 500, 7, 1), sequence(&a, 500, 8, 1));
        }
        assert_eq!(problems(), problems());
        assert_eq!(round_order(18, 3, 2), round_order(18, 3, 2));
        assert_ne!(round_order(18, 3, 2), round_order(18, 4, 2));
    }

    #[test]
    fn whole_blocks_carry_the_exact_class_mix() {
        let pool = serve_pool(ServeKind::Cached);
        let block: usize = pool.iter().map(|j| j.weight).sum();
        let seq = sequence(&pool, block * 5 + block / 2, 11, 0);
        assert_eq!(seq.len(), block * 5);
        for (i, job) in pool.iter().enumerate() {
            assert_eq!(seq.iter().filter(|&&k| k == i).count(), job.weight * 5);
        }
    }
}
