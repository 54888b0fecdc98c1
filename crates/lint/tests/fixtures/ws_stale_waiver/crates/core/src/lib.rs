//! Fixture workspace: a waiver for a finding that no longer exists. The
//! workspace pass must flag it as stale.

pub fn steady() -> u32 {
    // snaps-lint: allow(lock-discipline) -- the guard was dropped long ago
    7
}
