// libFuzzer harness for the FIMI text reader — the parser every tool
// points at user-supplied files. Any input must either parse cleanly or
// come back as a Status; beyond that, a database that parsed must
// survive the render/re-parse round trip (ToFimiString output is by
// construction valid FIMI).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "data/fimi_io.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Parsing is linear, but the round trip below holds the database and
  // two text copies at once; 1 MiB keeps the fuzzer out of OOM land.
  if (size > (size_t{1} << 20)) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  auto db = fim::ParseFimi(text);
  if (!db.ok()) return 0;
  const std::string rendered = fim::ToFimiString(db.value());
  auto again = fim::ParseFimi(rendered);
  if (!again.ok()) __builtin_trap();
  const fim::TransactionDatabase& first = db.value();
  const fim::TransactionDatabase& second = again.value();
  if (second.NumTransactions() != first.NumTransactions()) __builtin_trap();
  for (std::size_t k = 0; k < first.NumTransactions(); ++k) {
    if (!std::ranges::equal(second.transaction(k), first.transaction(k)))
      __builtin_trap();
  }
  return 0;
}
