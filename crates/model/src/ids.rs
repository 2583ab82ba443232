//! Identifiers: devices, WiFi APs, and geographic grid cells.

use serde::{Deserialize, Serialize};

/// The unique random device identifier assigned by the measurement software.
///
/// The real agent generates a random opaque ID per installation; in the
/// simulator IDs are dense indexes into the campaign population, which keeps
/// dataset storage compact without changing any analysis semantics.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{:05}", self.0)
    }
}

/// A WiFi BSSID: the MAC address of an access point radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bssid(pub [u8; 6]);

impl Bssid {
    /// Build a locally-administered unicast BSSID from a 40-bit value,
    /// imitating the per-radio MACs real vendors assign. The top byte is
    /// fixed to `0x02` (locally administered, unicast).
    pub fn from_u64(v: u64) -> Bssid {
        let b = v.to_be_bytes();
        Bssid([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// Pack into a u64 for compact storage (upper 16 bits zero).
    pub fn as_u64(self) -> u64 {
        let mut b = [0u8; 8];
        b[2..8].copy_from_slice(&self.0);
        u64::from_be_bytes(b)
    }

    /// The OUI (vendor prefix) — first three octets.
    pub fn oui(self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }
}

impl std::fmt::Display for Bssid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

/// A WiFi ESSID (network name).
///
/// ESSIDs drive the paper's public-network taxonomy (`0000docomo`,
/// `0001softbank`, `eduroam`, …), so we keep the real string rather than an
/// opaque id. The name is shared (`Arc<str>`): one AP's ESSID appears in
/// every association record of every device that ever joins it, so a clone
/// is a reference-count bump rather than a fresh heap string. Serialization
/// stays a plain JSON string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Essid(std::sync::Arc<str>);

impl Essid {
    /// Construct from anything string-like.
    pub fn new(s: impl Into<String>) -> Essid {
        Essid(s.into().into())
    }

    /// The raw network name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether two ESSIDs share the same backing allocation (an interner
    /// property — equality of contents is just `==`).
    pub fn ptr_eq(a: &Essid, b: &Essid) -> bool {
        std::sync::Arc::ptr_eq(&a.0, &b.0)
    }
}

/// Hashes and compares as its contents, so string-keyed sets of `Essid`
/// can be probed with a borrowed `&str`.
impl std::borrow::Borrow<str> for Essid {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Essid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Essid {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&self.0)
    }
}

impl<'de> Deserialize<'de> for Essid {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Essid, D::Error> {
        Ok(Essid::new(String::deserialize(d)?))
    }
}

/// A 5 km × 5 km grid cell of the Greater Tokyo area.
///
/// The agent reports geolocation at 5 km precision for privacy; the grid
/// geometry itself (origin, extent, geodesy) lives in `mobitrace-geo`. Here
/// we only need a compact, hashable coordinate pair.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CellId {
    /// East-west cell index (increasing eastwards).
    pub x: i16,
    /// North-south cell index (increasing northwards).
    pub y: i16,
}

impl CellId {
    /// Construct from indexes.
    pub fn new(x: i16, y: i16) -> CellId {
        CellId { x, y }
    }

    /// Chebyshev (king-move) distance in cells; adjacent including
    /// diagonals is 1.
    pub fn chebyshev(self, other: CellId) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx.max(dy)
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bssid_roundtrip_and_format() {
        let b = Bssid::from_u64(0xAB_CD_EF_12_34);
        assert_eq!(b.to_string(), "02:ab:cd:ef:12:34");
        assert_eq!(Bssid::from_u64(b.as_u64() & 0xFF_FF_FF_FF_FF), b);
        assert_eq!(b.oui(), [0x02, 0xab, 0xcd]);
    }

    #[test]
    fn bssid_locally_administered() {
        let b = Bssid::from_u64(123456);
        // Locally administered bit set, multicast bit clear.
        assert_eq!(b.0[0] & 0b10, 0b10);
        assert_eq!(b.0[0] & 0b01, 0);
    }

    #[test]
    fn cell_distance() {
        let a = CellId::new(0, 0);
        assert_eq!(a.chebyshev(CellId::new(3, -2)), 3);
        assert_eq!(a.chebyshev(a), 0);
        assert_eq!(CellId::new(-5, 4).chebyshev(CellId::new(-4, 4)), 1);
    }

    #[test]
    fn essid_display() {
        assert_eq!(Essid::new("0000docomo").to_string(), "0000docomo");
    }

    #[test]
    fn essid_serde_is_plain_string() {
        let e = Essid::new("eduroam");
        assert_eq!(serde_json::to_string(&e).unwrap(), "\"eduroam\"");
        let back: Essid = serde_json::from_str("\"eduroam\"").unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn essid_clone_shares_allocation() {
        let e = Essid::new("0001softbank");
        let c = e.clone();
        assert!(std::ptr::eq(e.as_str(), c.as_str()), "clone must share the backing str");
    }
}
