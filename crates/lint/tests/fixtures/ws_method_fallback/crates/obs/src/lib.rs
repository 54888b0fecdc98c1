//! Fallback target: the only workspace method named `observe`.

pub struct Registry {
    slots: Vec<u64>,
}

impl Registry {
    pub fn observe(&self, slot: usize) -> u64 {
        self.slots.get(slot).copied().unwrap_or(0)
    }
}
