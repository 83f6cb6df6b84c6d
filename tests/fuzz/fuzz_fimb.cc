// libFuzzer harness for the FIMB binary reader (ParseFimb), which the
// tools auto-detect on every input file. Any input must either parse
// cleanly or come back as a Status, without sizing an allocation from a
// declared length; a database that parsed must survive the
// render/re-parse round trip (ToFimbString output is by construction
// valid FIMB) with the same item base and the same rows.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "data/binary_io.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // The round trip holds the database and two byte copies at once.
  if (size > (size_t{1} << 20)) return 0;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto db = fim::ParseFimb(bytes);
  if (!db.ok()) return 0;
  const std::string rendered = fim::ToFimbString(db.value());
  auto again = fim::ParseFimb(rendered);
  if (!again.ok()) __builtin_trap();
  const fim::TransactionDatabase& first = db.value();
  const fim::TransactionDatabase& second = again.value();
  if (second.NumItems() != first.NumItems() ||
      second.NumTransactions() != first.NumTransactions()) {
    __builtin_trap();
  }
  for (std::size_t k = 0; k < first.NumTransactions(); ++k) {
    if (!std::ranges::equal(second.transaction(k), first.transaction(k)))
      __builtin_trap();
  }
  return 0;
}
