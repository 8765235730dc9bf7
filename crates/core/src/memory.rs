//! Memory reporting for the paper's Tables 9 and 12.
//!
//! Those tables compare the footprint of Inc-Greedy's coverage sets with
//! the NetClus index. Every measurable structure has an inherent
//! `heap_size_bytes` — live heap bytes of the data structure itself,
//! independent of allocator or runtime overhead (the paper's JVM numbers
//! include such overhead; relative ordering is what must reproduce) — and
//! [`format_bytes`] prints them.

/// Pretty-prints a byte count with binary units (e.g. `"3.22 GiB"`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert_eq!(
            format_bytes(3 * 1024 * 1024 * 1024 + 250 * 1024 * 1024),
            "3.24 GiB"
        );
    }
}
