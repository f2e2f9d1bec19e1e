//! The benchmark's own spans: name, start, end and parent, kept in memory
//! around calls into each layer's public functions and written out when
//! the run ends. They time the same calls in traced and untraced runs, so
//! end-to-end figures and the per-layer split come from one instrument.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A single-threaded span recorder rooted at the process start.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened inside `f` become
    /// its children.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.recs[id].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.recs.iter().filter(|r| r.name == name).count()
    }

    /// Summed self time of every span called `name`: each span's duration
    /// minus the part of it its direct children cover, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name == name)
            .map(|(id, r)| {
                let children: u64 = self
                    .recs
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                (r.end_ns - r.start_ns).saturating_sub(children) as f64 * 1e-9
            })
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(Instant::now());
        s.run("outer", |s| {
            s.run("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(s.total_s("outer") >= s.total_s("inner"));
        let self_outer = s.self_s("outer");
        assert!(self_outer >= 0.004 && self_outer < s.total_s("inner"));
        assert_eq!(s.count("inner"), 1);
    }
}
