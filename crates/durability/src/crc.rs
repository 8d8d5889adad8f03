//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! The offline dependency set has no checksum crate, so the durability
//! layer ships the standard table-driven implementation itself, eight
//! bytes at a step (slicing-by-8). Every WAL record and segment payload
//! carries one of these checksums; recovery treats a mismatch as
//! corruption, never as data.

/// `TABLES[k][b]` is the CRC register after byte `b` and `k` zero bytes:
/// row 0 is the classic one-byte table, and rows 1–7 let eight input
/// bytes be folded in with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            // sofya: allow(panic_path) — const-fn table build; k < 8 and i < 256 by the loop bounds
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

#[inline(always)]
fn table(k: usize, byte: u8) -> u32 {
    // sofya: allow(panic_path) — every caller passes k < 8, and a u8 indexes a 256-entry row
    TABLES[k][usize::from(byte)]
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = chunk else {
            continue; // chunks_exact(8) yields nothing else
        };
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        let folded = [b7, b6, b5, b4, c3, c2, c1, c0];
        crc = (0..8)
            .zip(folded)
            .fold(0, |acc, (k, byte)| acc ^ table(k, byte));
    }
    for &b in chunks.remainder() {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ table(0, low ^ b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one byte at a step, by the polynomial itself, so it
    /// shares no table with `crc32`.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn matches_the_reference_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn eight_bytes_at_a_step_equals_the_bytewise_loop() {
        let mut x: u32 = 0x5eed;
        let mut next = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (x >> 16) as u8
        };
        // Every length 0..=64 at every alignment within a word.
        let buf: Vec<u8> = (0..64 + 8).map(|_| next()).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset} len {len}");
            }
        }
        for _ in 0..4 {
            let big: Vec<u8> = (0..64 * 1024).map(|_| next()).collect();
            assert_eq!(crc32(&big), bytewise(&big));
            assert_eq!(crc32(&big[3..]), bytewise(&big[3..]));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
