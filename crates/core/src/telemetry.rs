//! Per-segment wear and utilization telemetry.
//!
//! The paper's §5.5 lifetime estimate and §4.3 wear-leveling argument
//! both rest on per-segment erase-cycle distributions, and software-
//! guided wear policies need the same visibility at run time. A
//! [`SegmentReport`] is a point-in-time snapshot of every physical
//! segment: its bank, position, erase cycles, and page-state breakdown.

use crate::engine::{Engine, POS_NONE};

/// Point-in-time snapshot of one physical segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSnapshot {
    /// Physical segment index.
    pub segment: u32,
    /// Bank the segment belongs to.
    pub bank: u32,
    /// Segment position, `None` for the spare.
    pub position: Option<u32>,
    /// Lifetime program/erase cycles.
    pub erase_cycles: u64,
    /// Pages holding live data.
    pub valid_pages: u32,
    /// Pages holding stale data awaiting cleaning.
    pub invalid_pages: u32,
    /// Erased, programmable pages.
    pub erased_pages: u32,
    /// Live-data fraction.
    pub utilization: f64,
}

/// Array-wide per-segment telemetry: one [`SegmentSnapshot`] per
/// physical segment plus wear aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// One snapshot per physical segment, in segment order.
    pub segments: Vec<SegmentSnapshot>,
    /// Fewest erase cycles over all segments.
    pub min_erase_cycles: u64,
    /// Most erase cycles over all segments.
    pub max_erase_cycles: u64,
    /// Mean erase cycles over all segments.
    pub mean_erase_cycles: f64,
}

impl SegmentReport {
    /// The wear spread (`max − min` erase cycles) — the quantity the
    /// §4.3 wear leveler bounds by the configured threshold.
    pub fn wear_spread(&self) -> u64 {
        self.max_erase_cycles - self.min_erase_cycles
    }

    /// Relative wear imbalance: spread over mean (`0` for a perfectly
    /// even array or one never erased).
    pub fn wear_imbalance(&self) -> f64 {
        if self.mean_erase_cycles == 0.0 {
            0.0
        } else {
            self.wear_spread() as f64 / self.mean_erase_cycles
        }
    }
}

impl Engine {
    /// Snapshot per-segment wear and utilization telemetry.
    pub fn segment_report(&self) -> SegmentReport {
        let geo = &self.config.geometry;
        let mut segments = Vec::with_capacity(geo.segments() as usize);
        let (mut min_c, mut max_c, mut sum_c) = (u64::MAX, 0u64, 0u64);
        for seg in 0..geo.segments() {
            let cycles = self.flash.erase_cycles(seg);
            min_c = min_c.min(cycles);
            max_c = max_c.max(cycles);
            sum_c += cycles;
            let pos = self.pos_of[seg as usize];
            segments.push(SegmentSnapshot {
                segment: seg,
                bank: self.flash.bank_of(seg),
                position: (pos != POS_NONE).then_some(pos),
                erase_cycles: cycles,
                valid_pages: self.flash.valid_pages(seg),
                invalid_pages: self.flash.invalid_pages(seg),
                erased_pages: self.flash.erased_pages(seg),
                utilization: self.flash.utilization(seg),
            });
        }
        SegmentReport {
            min_erase_cycles: min_c,
            max_erase_cycles: max_c,
            mean_erase_cycles: sum_c as f64 / segments.len() as f64,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvyConfig;

    #[test]
    fn report_covers_every_segment_and_spare() {
        let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
        e.prefill().unwrap();
        let r = e.segment_report();
        assert_eq!(r.segments.len(), 16);
        let spares: Vec<_> = r.segments.iter().filter(|s| s.position.is_none()).collect();
        assert_eq!(spares.len(), 1, "exactly one spare");
        assert_eq!(spares[0].erased_pages, 64);
        assert_eq!(r.wear_spread(), 0);
        assert_eq!(r.wear_imbalance(), 0.0);
        // Page-state counts always partition the segment.
        for s in &r.segments {
            assert_eq!(s.valid_pages + s.invalid_pages + s.erased_pages, 64);
        }
    }

    #[test]
    fn report_tracks_wear_after_churn() {
        let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
        e.prefill().unwrap();
        let mut ops = Vec::new();
        let pages = e.config().logical_pages;
        for i in 0..6_000u64 {
            e.write_page_bytes((i * 13) % pages, 0, &[i as u8], None, &mut ops)
                .unwrap();
            ops.clear();
        }
        let r = e.segment_report();
        assert!(r.max_erase_cycles > 0, "churn must erase segments");
        assert_eq!(
            r.segments.iter().map(|s| s.erase_cycles).max().unwrap(),
            r.max_erase_cycles
        );
        assert!(r.mean_erase_cycles > 0.0);
    }
}
