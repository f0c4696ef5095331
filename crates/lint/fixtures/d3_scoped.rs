// Fixture: scoped threads, unwaived and waived.
pub fn fork(data: &[u64]) -> (u64, u64) {
    let (lo, hi) = data.split_at(data.len() / 2);
    std::thread::scope(|s| {
        let h = s.spawn(|| hi.iter().sum::<u64>());
        (lo.iter().sum(), h.join().unwrap_or(0))
    })
}

pub fn fork_approved(data: &[u64]) -> u64 {
    // triton-lint: allow(d3) -- fixture exercising a waived scoped fork
    std::thread::scope(|_| data.len() as u64)
}
