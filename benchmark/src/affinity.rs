//! Thread placement, so that a latency does not depend on where the
//! scheduler happened to put the threads.
//!
//! On a two-vCPU box a closed-loop client and the server worker answering it
//! are never runnable at the same time. Left alone, the scheduler sometimes
//! keeps the pair on one CPU (a wake-up is a context switch) and sometimes
//! spreads it over both (every hand-off wakes an idle vCPU) — a choice that
//! flips from minute to minute and moves a `/search` round trip by 20–80 %,
//! far more than any change this benchmark is meant to resolve. So the
//! benchmark pins itself, and with it every thread it and the server spawn
//! afterwards, to the last CPU it is allowed on (interrupts and the rest of
//! the box gravitate to the first); the engine's background compactor and
//! the open-loop writer of `mixed_rw` alone are moved to the first one, so
//! that a compaction costs the foreground its lock and not its CPU, and the
//! write schedule is kept whatever the foreground does. `std` has no
//! affinity call and the container has no `libc` crate, so the pinning goes
//! through the `taskset` program; without it the run proceeds unpinned and
//! says so.

use std::process::{Command, Stdio};

/// Where the benchmark put itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The CPU every foreground thread runs on, when pinning worked.
    pub foreground: Option<usize>,
    /// The CPU background threads are moved to (the foreground CPU again
    /// when only one is allowed).
    pub background: Option<usize>,
}

/// Parses a `Cpus_allowed_list` value such as `0-1,4`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (low, high) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(low), Ok(high)) = (low.trim().parse::<usize>(), high.trim().parse::<usize>()) {
            cpus.extend(low..=high);
        }
    }
    cpus
}

fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// `taskset -cp <cpu> <task>`; true when it succeeded.
fn pin_task(task: &str, cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), task])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Pins the calling thread — call it from `main` before any other thread
/// exists, so that every later thread inherits the placement.
pub fn pin_foreground() -> Placement {
    let cpus = allowed_cpus();
    match (cpus.first(), cpus.last()) {
        (Some(&first), Some(&last)) if pin_task(&std::process::id().to_string(), last) => {
            Placement {
                foreground: Some(last),
                background: Some(first),
            }
        }
        _ => Placement {
            foreground: None,
            background: None,
        },
    }
}

impl Placement {
    /// Moves every thread of this process whose name is `name` to the
    /// background CPU; returns how many were moved.
    pub fn move_to_background(&self, name: &str) -> usize {
        let Some(cpu) = self.background else {
            return 0;
        };
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim() == name)
            })
            .filter(|task| pin_task(&task.file_name().to_string_lossy(), cpu))
            .count()
    }

    /// Moves the calling thread to the background CPU (for a load
    /// generator that must keep its schedule whatever the server does to
    /// the foreground CPU); true when it moved.
    pub fn move_current_to_background(&self) -> bool {
        let Some(cpu) = self.background else {
            return false;
        };
        std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|link| {
                link.file_name()
                    .map(|tid| tid.to_string_lossy().into_owned())
            })
            .is_some_and(|tid| pin_task(&tid, cpu))
    }

    /// One line for the run's header.
    pub fn describe(&self) -> String {
        match (self.foreground, self.background) {
            (Some(foreground), Some(background)) => format!(
                "foreground threads pinned to CPU {foreground}, compactor and open-loop writer to CPU {background}"
            ),
            _ => "UNPINNED (no usable `taskset`): latencies depend on thread placement".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("\t3"), vec![3]);
        assert_eq!(parse_cpu_list("0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }
}
