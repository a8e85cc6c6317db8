/**
 * @file
 * Fuzz entry points shared by the libFuzzer targets (fuzz_*.cc) and
 * the corpus-replay test (tests/fuzz_corpus_test.cc).
 *
 * Each function consumes arbitrary bytes and must return normally:
 * every parser under test is *total* on its input domain, mapping
 * any byte string to either a validated value or a typed rl::Status.
 * The harness aborts only when a totality promise is broken -- a
 * crash, a sanitizer report, or an accepted input the library's own
 * validation then rejects (the anti-drift property).
 */

#ifndef RACELOGIC_FUZZ_HARNESS_H
#define RACELOGIC_FUZZ_HARNESS_H

#include <cstddef>
#include <cstdint>

namespace racelogic::fuzz {

/** Arbitrary bytes as a GFA document through pangraph::tryReadGfa(). */
int gfaInput(const uint8_t *data, size_t size);

/** Arbitrary bytes as FASTA through bio::tryReadFasta(). */
int fastaInput(const uint8_t *data, size_t size);

/**
 * Arbitrary bytes as one wire request payload through
 * serve::decodeRequest() against a preloaded pangenome, then -- for
 * every accepted decode -- the same problems the server would queue
 * are checked against api::validateProblem(), aborting if decode
 * accepted what validation rejects.  The payload is also fed to
 * serve::decodeResponse() (total for any bytes).
 */
int wireInput(const uint8_t *data, size_t size);

/**
 * Arbitrary bytes as a differential race of the pairwise grid kernel.
 * The bytes decode to an alphabet of 2..5 symbols, a cost matrix
 * (forbidden pairs allowed, finite weights 1..2^20), two sequences of
 * at most 40 symbols and a horizon.  Aborts unless core::raceEditGrid
 * with a KernelCounters sink, raceEditGrid without one, and the
 * materialized edit graph raced on core::raceDagEventDriven agree
 * field by field, and unless a completed race scores
 * bio::globalScore.
 */
int kernelInput(const uint8_t *data, size_t size);

} // namespace racelogic::fuzz

#endif // RACELOGIC_FUZZ_HARNESS_H
