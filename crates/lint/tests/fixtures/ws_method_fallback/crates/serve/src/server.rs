//! Fixture workspace: method-call resolution fallback. `reg.observe(..)`
//! has no path qualifier, so it resolves by name to every workspace method
//! called `observe` — here only `obs::Registry::observe`, a call into
//! another crate while the guard is held. `g.tally(..)` also exists in the
//! `model` crate, but the same-crate candidate (`Gauge::tally`) wins, so
//! it stays a same-crate call and raises no finding.

pub struct Gauge;

impl Gauge {
    pub fn tally(&self, _n: u64) {}
}

pub fn search(m: &Mutex<u64>, reg: &Registry, g: &Gauge) {
    let guard = m.lock();
    g.tally(1);
    reg.observe(7);
}
