//! Seeded violation for the `hot-path-alloc` rule.

#![forbid(unsafe_code)]

// sitw-lint: hot-path
pub fn render(id: u64) -> String {
    id.to_string()
}

// sitw-lint: hot-path
pub fn remember(names: &mut Vec<String>, raw: &mut Vec<Vec<u8>>, name: &str) {
    names.push(name.to_owned());
    raw.push(name.as_bytes().to_vec());
}

// sitw-lint: hot-path
pub fn batch(ids: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
    (vec![None; ids.len()], ids.iter().map(|id| id + 1).collect())
}
