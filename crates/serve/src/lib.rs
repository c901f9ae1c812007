//! # dnnip-serve — the long-lived test-generation service
//!
//! The DATE 2019 flow generates functional tests **per model, per
//! criterion, per budget** — exactly the mixed traffic a silicon validation
//! lab submits as a queue, not as one-shot CLI invocations. This crate
//! wraps a [`dnnip_core::workspace::Workspace`] in a service loop:
//!
//! * **Protocol** ([`protocol`]): newline-delimited JSON. Each request line
//!   names an operation (`generate`, `models`, `stats`, `shutdown`) and
//!   gets exactly one response line, correlated by `id`.
//!   Responses may arrive out of submission order; errors are structured
//!   (`"ok":false` with a machine-readable `kind`), never dropped lines. A
//!   line that is not UTF-8 or is longer than [`MAX_LINE_BYTES`] is such an
//!   error too, and the session reads on.
//! * **Engine** ([`engine`]): a bounded worker pool over one shared
//!   workspace — concurrent requests reuse each other's cached activation
//!   sets — with per-request deadlines (expired-in-queue requests fail
//!   without compute; running ones stop at their next check between chunks
//!   of work) and a graceful drain that answers everything already accepted.
//! * **JSON** ([`json`]): a dependency-free parser/serializer covering the
//!   protocol's needs; the build environment is offline, so no serde.
//!
//! The `dnnip-serve` binary speaks the protocol on stdin/stdout by default
//! and on a Unix domain socket with `--socket PATH`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod json;
pub mod protocol;

pub use engine::{shutdown_response, CoalesceSnapshot, Engine, EngineConfig, Handled};

use std::io::{BufRead, Read, Write};
use std::sync::mpsc;

use dnnip_nn::Network;
use dnnip_tensor::Tensor;
use engine::error_response;

/// Longest request line accepted, in bytes, newline excluded: room for an
/// inline pool of 1024 samples of the largest built-in input (`mnist-scaled`,
/// 1×16×16) at 30 bytes per number. A longer line is answered with a
/// `bad_request` and skipped, buffering no more than the cap of it.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Most `f32` elements one request's candidate pool may hold (size × input
/// elements; 64 MiB of samples): far above any pool the benchmarks send,
/// and small enough that materializing it cannot exhaust memory. A larger
/// pool, or a `budget` × input elements above it, is answered with a
/// `bad_request`.
pub const MAX_POOL_ELEMENTS: usize = 1 << 24;

/// Most gradient-descent steps one `generate` may ask the gradient
/// generator for (`gradgen_steps`): a hundred times the largest count any
/// test or benchmark sends. A larger count is answered with a `bad_request`.
pub const MAX_GRADGEN_STEPS: usize = 20_000;

/// A deterministic candidate pool of `size` samples in `network`'s input
/// shape, derived only from the seed: the same pool for the same
/// (shape, size, seed) triple on every run, so `dnnip-import run` and the
/// `graph_sweep` bench over one model share covered-set cache entries.
pub fn graph_pool(network: &Network, size: usize, seed: u64) -> Vec<Tensor> {
    let shape = network.input_shape().to_vec();
    let per: usize = shape.iter().product();
    (0..size)
        .map(|i| {
            Tensor::from_fn(&shape, |j| {
                let n =
                    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize).wrapping_add(i * per + j);
                ((n % 7919) as f32 * 0.017).sin()
            })
        })
        .collect()
}

/// Serve the NDJSON protocol over an arbitrary reader/writer pair until
/// EOF or a `shutdown` request, then drain the engine (every accepted
/// request is answered) and — when shutdown was requested — acknowledge it
/// as the final line.
///
/// Responses are written as they complete, so they may interleave out of
/// submission order; clients correlate by `id`.
///
/// # Errors
///
/// Propagates I/O errors from the reader and writer.
pub fn run_stdio<R, W>(engine: Engine, input: R, output: &mut W) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let (out_tx, out_rx) = mpsc::channel::<String>();
    std::thread::scope(|s| -> std::io::Result<()> {
        // The writer owns the output for the whole session: workers finish
        // at arbitrary times and must never interleave partial lines.
        let writer = s.spawn(move || -> std::io::Result<()> {
            for line in out_rx {
                writeln!(output, "{line}")?;
                output.flush()?;
            }
            Ok(())
        });
        let read = serve_lines(&engine, input, &out_tx);
        engine.drain();
        if let Ok(Some(id)) = &read {
            let _ = out_tx.send(shutdown_response(id));
        }
        drop(out_tx);
        let written = writer.join().expect("writer thread panicked");
        read.and(written)
    })
}

/// Hand each request line of `input` to `engine` until EOF or a `shutdown`
/// request, and return the shutdown's id (`None` at EOF). Blank lines are
/// skipped. A line that is not UTF-8 or is longer than [`MAX_LINE_BYTES`]
/// is answered on `out` with a `bad_request`, and the session goes on.
///
/// # Errors
///
/// Propagates I/O errors from the reader; requests accepted before one
/// are still answered.
pub fn serve_lines<R: BufRead>(
    engine: &Engine,
    mut input: R,
    out: &mpsc::Sender<String>,
) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf)? {
        match line {
            Ok(text) if text.trim().is_empty() => {}
            Ok(text) => {
                if let Handled::Shutdown { id } = engine.handle(text, out) {
                    return Ok(Some(id));
                }
            }
            Err(message) => {
                let _ = out.send(error_response("", "bad_request", &message).to_string());
            }
        }
    }
    Ok(None)
}

/// Read one line into `buf` and return it without its `\n` or `\r\n`, or
/// the reason it is rejected; `None` at EOF. At most `MAX_LINE_BYTES + 1`
/// bytes of a line are ever buffered.
fn read_line<'a, R: BufRead>(
    input: &mut R,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<Option<Result<&'a str, String>>> {
    let cap = MAX_LINE_BYTES as u64 + 1;
    buf.clear();
    if input.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        // Skip the rest of the over-long line in bounded chunks.
        loop {
            buf.clear();
            let n = input.by_ref().take(cap).read_until(b'\n', buf)?;
            if n == 0 || buf.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| {
        format!("request line is not valid UTF-8: {e}")
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_pool_is_deterministic_and_shaped() {
        let graph = dnnip_nn::zoo::residual_classifier(3).expect("residual graph");
        let a = graph_pool(&graph, 4, 9);
        let b = graph_pool(&graph, 4, 9);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.shape(), &[1, 8, 8]);
            assert_eq!(x.data(), y.data());
        }
        let c = graph_pool(&graph, 4, 10);
        assert_ne!(a[0].data(), c[0].data());
    }
}
