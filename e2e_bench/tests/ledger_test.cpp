// Unit tests for OpLedger: failed-op accounting. Exits non-zero on the
// first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "ledger.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void throwing_op_counts_as_failed() {
  e2e::OpLedger ledger;
  int out = 0;
  const bool ok = ledger.run(
      "write", []() -> int { throw std::runtime_error("disk on fire"); },
      [](int) { return true; }, &out);
  expect(!ok, "a throwing op reports failure");
  expect(ledger.attempted() == 1, "a throwing op is attempted");
  expect(ledger.failed() == 1, "a throwing op counts as failed");
  expect(ledger.count("write") == 1, "a throwing op keeps its sample");
  expect(!ledger.samples().at("write")[0].ok, "its sample is flagged failed");
  expect(ledger.errors().size() == 1 &&
             ledger.errors()[0] == "write: disk on fire",
         "the error names the op type and reason");
}

void failed_check_counts_as_failed() {
  e2e::OpLedger ledger;
  int out = -1;
  ledger.run("read", [] { return 7; }, [](int v) { return v == 7; }, &out);
  expect(out == 7, "a passing op hands its result back");
  ledger.run("read", [] { return 8; }, [](int v) { return v == 7; }, &out);
  expect(out == 7, "a failing op leaves the output untouched");
  ledger.run("read", [] { return 9; },
             [](int) -> bool { throw std::runtime_error("oracle threw"); },
             &out);
  ledger.run("query", [] { return 1; }, [](int) { return true; }, &out);
  expect(ledger.attempted() == 4, "every op is attempted");
  expect(ledger.failed() == 2, "a false or throwing check fails the op");
  expect(ledger.failed_frac() == 0.5, "failed_frac = failed / attempted");
  expect(ledger.count("read") == 3, "no op is dropped from the sample");
  for (const e2e::OpSample& s : ledger.samples().at("read"))
    expect(s.ms >= 0.0 && s.cpu_ms >= 0.0, "every sample has both times");
  expect(ledger.samples().at("read")[0].ok &&
             !ledger.samples().at("read")[1].ok &&
             !ledger.samples().at("read")[2].ok,
         "samples keep run order and flags");
}

void empty_ledger() {
  e2e::OpLedger ledger;
  expect(ledger.failed_frac() == 0.0, "no ops, no failures");
  expect(ledger.count("write") == 0, "no samples");
}

}  // namespace

int main() {
  throwing_op_counts_as_failed();
  failed_check_counts_as_failed();
  empty_ledger();
  if (failures == 0) std::printf("ledger tests passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
