//! Combat units.

use mpisim::{Wire, WireError};

/// One combat unit: identity, remaining strength, and attack rating.
///
/// Strength is hit points; a unit whose strength reaches zero is destroyed
/// and logged in its cell's destroyed-asset counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Globally unique unit id (assigned by the scenario generator;
    /// determines deterministic ordering within a cell).
    pub id: u32,
    /// Remaining hit points.
    pub strength: u32,
    /// Damage contributed to the cell's fire allocation each step.
    pub attack: u32,
}

impl Unit {
    /// A fresh unit.
    pub fn new(id: u32, strength: u32, attack: u32) -> Self {
        Unit {
            id,
            strength,
            attack,
        }
    }

    /// Whether the unit is still combat-effective.
    pub fn alive(&self) -> bool {
        self.strength > 0
    }
}

impl Wire for Unit {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.strength.encode(out);
        self.attack.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Unit {
            id: u32::decode(buf)?,
            strength: u32::decode(buf)?,
            attack: u32::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let u = Unit::new(7, 100, 12);
        assert_eq!(u.encoded_len(), u.to_bytes().len());
        let back = Unit::from_bytes(&u.to_bytes()).unwrap();
        assert_eq!(u, back);
    }

    #[test]
    fn aliveness() {
        assert!(Unit::new(0, 1, 1).alive());
        assert!(!Unit::new(0, 0, 1).alive());
    }
}
