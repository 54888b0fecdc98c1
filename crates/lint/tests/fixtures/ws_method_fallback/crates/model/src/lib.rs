//! Decoy: a second `tally` in another crate. The caller's crate has its
//! own `tally`, so the same-crate preference must keep this one out of the
//! fallback edge set.

pub struct Ledger {
    rows: Vec<u64>,
}

impl Ledger {
    pub fn tally(&self, row: usize) -> u64 {
        self.rows.get(row).copied().unwrap_or(0)
    }
}
