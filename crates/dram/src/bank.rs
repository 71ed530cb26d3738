//! Per-bank and per-rank timing state.
//!
//! Each bank tracks its open row and the earliest cycle at which each
//! command class may next be issued to it. Ranks additionally track the
//! four-activate window (tFAW), activate-to-activate spacing (tRRD), and
//! rank-wide write-to-read turnaround (tWTR).

use crate::config::DramTiming;
use itesp_snap::Persist;

/// Row-buffer state and per-command earliest-issue times for one bank.
#[derive(Debug, Clone, Default, Persist)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue.
    pub next_activate: u64,
    /// Earliest cycle a RD may issue (requires open row).
    pub next_read: u64,
    /// Earliest cycle a WR may issue (requires open row).
    pub next_write: u64,
    /// Earliest cycle a PRE may issue.
    pub next_precharge: u64,
}

impl BankState {
    /// Apply the effects of an ACT to `row` at cycle `now`.
    pub fn activate(&mut self, row: u32, now: u64, t: &DramTiming) {
        debug_assert!(self.open_row.is_none(), "ACT to a bank with an open row");
        self.open_row = Some(row);
        self.next_read = self.next_read.max(now + t.t_rcd);
        self.next_write = self.next_write.max(now + t.t_rcd);
        self.next_precharge = self.next_precharge.max(now + t.t_ras);
        self.next_activate = self.next_activate.max(now + t.t_rc);
    }

    /// Apply the effects of a RD at cycle `now`.
    pub fn read(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(self.open_row.is_some(), "RD to a closed bank");
        self.next_precharge = self.next_precharge.max(now + t.t_rtp);
        self.next_read = self.next_read.max(now + t.t_ccd);
        self.next_write = self
            .next_write
            .max(now + t.t_cas + t.t_burst + t.t_rtrs - t.t_cwd);
    }

    /// Apply the effects of a WR at cycle `now`.
    pub fn write(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(self.open_row.is_some(), "WR to a closed bank");
        self.next_precharge = self.next_precharge.max(now + t.t_cwd + t.t_burst + t.t_wr);
        self.next_write = self.next_write.max(now + t.t_ccd);
        // Rank-wide tWTR is applied by RankState; the same-bank constraint
        // is subsumed by it but kept here for clarity.
        self.next_read = self.next_read.max(now + t.t_cwd + t.t_burst + t.t_wtr);
    }

    /// Apply the effects of a PRE at cycle `now`.
    pub fn precharge(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(self.open_row.is_some(), "PRE to a closed bank");
        self.open_row = None;
        self.next_activate = self.next_activate.max(now + t.t_rp);
    }
}

/// Rank-wide constraints shared by all banks in the rank. The snapshot
/// includes the private tFAW window, which no public accessor exposes.
#[derive(Debug, Clone, Persist)]
pub struct RankState {
    /// Issue times of the last four ACTs (for the tFAW window).
    act_history: [u64; 4],
    /// Number of ACTs recorded so far (tFAW only binds after four).
    acts_seen: u64,
    /// Earliest cycle an ACT may issue anywhere in the rank (tRRD).
    pub next_activate: u64,
    /// Earliest cycle a RD may issue anywhere in the rank (tWTR after a
    /// write burst, tCCD after a read).
    pub next_read: u64,
    /// Earliest cycle a WR may issue anywhere in the rank.
    pub next_write: u64,
    /// Rank blocked until this cycle by refresh.
    pub ready_at: u64,
    /// Next scheduled refresh deadline.
    pub next_refresh: u64,
}

impl RankState {
    pub fn new(t: &DramTiming, rank_index: u64) -> Self {
        RankState {
            act_history: [0; 4],
            acts_seen: 0,
            next_activate: 0,
            next_read: 0,
            next_write: 0,
            ready_at: 0,
            // Stagger refreshes across ranks so they don't all block at once.
            next_refresh: t.t_refi + rank_index * (t.t_refi / 16).max(1),
        }
    }

    /// Earliest cycle an ACT can issue in this rank, considering tFAW,
    /// tRRD, and refresh blackout.
    pub fn activate_allowed_at(&self, t: &DramTiming) -> u64 {
        let faw_bound = if self.acts_seen >= 4 {
            self.act_history[0] + t.t_faw
        } else {
            0
        };
        faw_bound.max(self.next_activate).max(self.ready_at)
    }

    /// Record an ACT at `now`.
    pub fn activate(&mut self, now: u64, t: &DramTiming) {
        self.act_history.rotate_left(1);
        self.act_history[3] = now;
        self.acts_seen += 1;
        self.next_activate = self.next_activate.max(now + t.t_rrd);
    }

    /// Record a column read at `now` (tCCD spacing within the rank).
    pub fn read(&mut self, now: u64, t: &DramTiming) {
        self.next_read = self.next_read.max(now + t.t_ccd);
        self.next_write = self
            .next_write
            .max(now + t.t_cas + t.t_burst + t.t_rtrs - t.t_cwd);
    }

    /// Record a column write at `now` (tWTR turnaround for reads).
    pub fn write(&mut self, now: u64, t: &DramTiming) {
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_read = self.next_read.max(now + t.t_cwd + t.t_burst + t.t_wtr);
    }

    /// Block the rank for a refresh starting at `now`.
    pub fn refresh(&mut self, now: u64, t: &DramTiming) {
        self.ready_at = now + t.t_rfc;
        self.next_refresh += t.t_refi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr3_1600()
    }

    #[test]
    fn activate_sets_rcd_and_ras_windows() {
        let t = t();
        let mut b = BankState::default();
        b.activate(7, 100, &t);
        assert_eq!(b.open_row, Some(7));
        assert_eq!(b.next_read, 100 + t.t_rcd);
        assert_eq!(b.next_precharge, 100 + t.t_ras);
        assert_eq!(b.next_activate, 100 + t.t_rc);
    }

    #[test]
    fn precharge_closes_row_and_enforces_rp() {
        let t = t();
        let mut b = BankState::default();
        b.activate(1, 0, &t);
        b.precharge(t.t_ras, &t);
        assert_eq!(b.open_row, None);
        assert_eq!(b.next_activate, t.t_ras + t.t_rp);
    }

    #[test]
    fn read_to_precharge_respects_rtp() {
        let t = t();
        let mut b = BankState::default();
        b.activate(1, 0, &t);
        b.read(t.t_rcd, &t);
        assert!(b.next_precharge >= t.t_rcd + t.t_rtp);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = t();
        let mut b = BankState::default();
        b.activate(1, 0, &t);
        b.write(t.t_rcd, &t);
        assert_eq!(
            b.next_precharge,
            (t.t_rcd + t.t_cwd + t.t_burst + t.t_wr).max(t.t_ras)
        );
    }

    #[test]
    fn faw_limits_fifth_activate() {
        let t = t();
        let mut r = RankState::new(&t, 0);
        for i in 0..4 {
            let at = i * t.t_rrd;
            assert!(r.activate_allowed_at(&t) <= at);
            r.activate(at, &t);
        }
        // The fifth ACT must wait for the first to leave the tFAW window.
        assert_eq!(r.activate_allowed_at(&t), t.t_faw);
    }

    #[test]
    fn wtr_turnaround_after_write() {
        let t = t();
        let mut r = RankState::new(&t, 0);
        r.write(50, &t);
        assert_eq!(r.next_read, 50 + t.t_cwd + t.t_burst + t.t_wtr);
    }

    #[test]
    fn refresh_blocks_rank_for_rfc() {
        let t = t();
        let mut r = RankState::new(&t, 0);
        let deadline = r.next_refresh;
        r.refresh(deadline, &t);
        assert_eq!(r.ready_at, deadline + t.t_rfc);
        assert_eq!(r.next_refresh, deadline + t.t_refi);
        assert!(r.activate_allowed_at(&t) >= r.ready_at);
    }
}
