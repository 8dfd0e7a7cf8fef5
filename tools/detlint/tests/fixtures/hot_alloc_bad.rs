// Known-bad: allocations inside a manifest-pinned hot function. The same
// tokens in a non-hot function are fine.
fn hot_fn(xs: &[u32]) -> Vec<u32> {
    let v = Vec::new();
    let mut w = xs.to_vec();
    let b = Box::new(1u32);
    let s = format!("{}", b);
    let _ = (v, s.clone());
    w.reserve(8);
    w
}

fn cold_fn(xs: &[u32]) -> Vec<u32> {
    let _ = format!("{}", xs.len());
    xs.to_vec()
}
