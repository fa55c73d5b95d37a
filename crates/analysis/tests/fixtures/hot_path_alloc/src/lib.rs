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
