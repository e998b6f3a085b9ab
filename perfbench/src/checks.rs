//! Output checks, each computed apart from the program under test.
//!
//! Every check is a plain function over recorded outputs so that the
//! tests below can feed it a wrong output and see it fail.

use envy_core::EnvyStats;

// ---------------------------------------------------------------------
// tpca-engine
// ---------------------------------------------------------------------

/// The store counted exactly the word accesses the benchmark issued.
pub fn access_counts(reads: u64, writes: u64, stats: &EnvyStats) -> Result<(), String> {
    let (r, w) = (stats.host_reads.get(), stats.host_writes.get());
    if (r, w) != (reads, writes) {
        return Err(format!(
            "store counted {r} reads / {w} writes, benchmark issued {reads} / {writes}"
        ));
    }
    Ok(())
}

/// An open loop cannot complete faster than it offers.
pub fn within_offered(sim_tps: f64, offered_tps: f64) -> Result<(), String> {
    if !(sim_tps > 0.0 && sim_tps <= offered_tps) {
        return Err(format!(
            "sim_tps {sim_tps:.1} outside (0, offered {offered_tps:.1}]"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// ycsb-a-inproc
// ---------------------------------------------------------------------

/// The fill byte of a `len`-byte value made of one repeated byte, as
/// `YcsbConfig::value_for` makes them; `None` for anything else.
pub fn uniform_fill(value: &[u8], len: usize) -> Option<u8> {
    let first = *value.first()?;
    (value.len() == len && value.iter().all(|&b| b == first)).then_some(first)
}

/// On one thread, a read returns exactly the last value written to its
/// key, whose fill byte is `expected`.
pub fn latest_value(value: Option<&[u8]>, expected: u8, len: usize) -> Result<(), String> {
    match value.and_then(|v| uniform_fill(v, len)) {
        Some(fill) if fill == expected => Ok(()),
        _ => Err(format!(
            "read {value:?}, expected {len} bytes of {expected:#04x}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::served;
    use crate::util;
    use envy_core::{EnvyConfig, EnvyStore};
    use envy_server::shard::Request;
    use envy_server::ShardPlan;

    #[test]
    fn a_flipped_value_byte_is_caught() {
        let mut value = vec![0x5A; 100];
        assert_eq!(uniform_fill(&value, 100), Some(0x5A));
        value[37] ^= 1;
        assert_eq!(uniform_fill(&value, 100), None);
        assert_eq!(uniform_fill(&[0x5A; 99], 100), None, "short value");
    }

    #[test]
    fn a_stale_or_damaged_sequential_read_is_caught() {
        let mut value = vec![7u8; 100];
        assert!(latest_value(Some(&value), 7, 100).is_ok());
        assert!(
            latest_value(Some(&value), 6, 100).is_err(),
            "lost update: older value"
        );
        value[99] = 8;
        assert!(latest_value(Some(&value), 7, 100).is_err(), "flipped byte");
        assert!(latest_value(None, 7, 100).is_err(), "missing key");
    }

    fn small_plan_and_stores() -> (ShardPlan, Vec<EnvyStore>) {
        let mut base = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        base.prefill().unwrap();
        let plan = ShardPlan::new(2, base.size());
        (plan, vec![base.fork(), base.fork()])
    }

    fn stream(plan: &ShardPlan) -> Vec<Request> {
        (0..200u64)
            .map(|i| {
                let addr = (i * 7_919 * 8) % (plan.total_bytes() - 8);
                if i % 3 == 0 {
                    Request::Write {
                        addr,
                        bytes: i.to_le_bytes().to_vec(),
                    }
                } else {
                    Request::Read { addr, len: 8 }
                }
            })
            .collect()
    }

    /// Apply `reqs` in order to forks of `start`; return the merged
    /// statistics.
    fn replay(plan: &ShardPlan, start: &[EnvyStore], reqs: &[Request]) -> EnvyStats {
        let mut stores: Vec<EnvyStore> = start.iter().map(EnvyStore::fork).collect();
        for req in reqs {
            served::apply(plan, &mut stores, req).unwrap();
        }
        layers::merged(&stores)
    }

    /// Bus words read and written by `reqs`, counted from their
    /// shard-local addresses and lengths.
    fn issued(plan: &ShardPlan, start: &[EnvyStore], reqs: &[Request]) -> (u64, u64) {
        let c = start[0].config();
        let (page, word) = (c.geometry.page_bytes() as u64, c.word_bytes as u64);
        let (mut reads, mut writes) = (0, 0);
        for req in reqs {
            match served::route(plan, req).1 {
                Request::Read { addr, len } => reads += util::words(addr, len as u64, page, word),
                Request::Write { addr, bytes } => {
                    writes += util::words(addr, bytes.len() as u64, page, word)
                }
                other => unreachable!("{other:?}"),
            }
        }
        (reads, writes)
    }

    #[test]
    fn a_replay_one_access_short_is_caught() {
        let (plan, start) = small_plan_and_stores();
        let reqs = stream(&plan);
        let (reads, writes) = issued(&plan, &start, &reqs);
        let full = replay(&plan, &start, &reqs);
        assert!(access_counts(reads, writes, &full).is_ok());
        let short = replay(&plan, &start, &reqs[..reqs.len() - 1]);
        assert!(access_counts(reads, writes, &short).is_err());
    }

    #[test]
    fn a_mismatched_stat_is_caught() {
        let (plan, start) = small_plan_and_stores();
        let reqs = stream(&plan);
        let (reads, writes) = issued(&plan, &start, &reqs);
        let mut stats = replay(&plan, &start, &reqs);
        assert!(access_counts(reads, writes, &stats).is_ok());
        stats.host_writes.incr();
        assert!(access_counts(reads, writes, &stats).is_err());
    }

    #[test]
    fn an_open_loop_above_its_offer_is_caught() {
        assert!(within_offered(70_000.0, 100_000.0).is_ok());
        assert!(within_offered(100_001.0, 100_000.0).is_err());
        assert!(within_offered(0.0, 100_000.0).is_err());
    }
}
