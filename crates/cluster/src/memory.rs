//! GPU memory accounting for out-of-memory prediction.
//!
//! The paper reports three OOM behaviours that the reproduction must
//! exhibit: sweep configurations excluded for exceeding 11 GB (§6.1),
//! Faster-MoE running out of memory on BERT-Large-MoE (Table 8), and
//! 1DH-A2A running out of memory at large message sizes (Fig. 9c). All
//! three are predicted by summing labelled memory components against the
//! device capacity.

use std::fmt;

/// An itemized GPU memory budget.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    capacity: u64,
    components: Vec<(String, u64)>,
}

impl MemoryBudget {
    /// Creates a budget against `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        MemoryBudget {
            capacity,
            components: Vec::new(),
        }
    }

    /// Adds a named component of `bytes`.
    pub fn add(&mut self, label: impl Into<String>, bytes: u64) -> &mut Self {
        self.components.push((label.into(), bytes));
        self
    }

    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.components.iter().map(|c| c.1).sum()
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether the budget fits in device memory.
    pub fn fits(&self) -> bool {
        self.total() <= self.capacity
    }

    /// The labelled components, in insertion order.
    pub fn components(&self) -> &[(String, u64)] {
        &self.components
    }
}

impl fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "memory budget: {:.2} GiB used of {:.2} GiB{}",
            self.total() as f64 / (1 << 30) as f64,
            self.capacity as f64 / (1 << 30) as f64,
            if self.fits() { "" } else { "  ** OOM **" }
        )?;
        for (label, bytes) in &self.components {
            writeln!(
                f,
                "  {:>10.2} MiB  {label}",
                *bytes as f64 / (1 << 20) as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_budget_fits() {
        let b = MemoryBudget::new(1000);
        assert!(b.fits());
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn components_accumulate() {
        let mut b = MemoryBudget::new(1000);
        b.add("weights", 600).add("activations", 300);
        assert_eq!(b.total(), 900);
        assert!(b.fits());
        b.add("buffers", 200);
        assert!(!b.fits());
        assert_eq!(b.total() - b.capacity(), 100);
    }

    #[test]
    fn display_flags_oom() {
        let mut b = MemoryBudget::new(1 << 30);
        b.add("huge", 2 << 30);
        let s = format!("{b}");
        assert!(s.contains("OOM"));
        assert!(s.contains("huge"));
    }
}
