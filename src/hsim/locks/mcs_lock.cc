// LockKindName.  (The lock adapters themselves are header-only: see
// sim_lock.h.)

#include "src/hsim/locks/sim_lock.h"

namespace hsim {

const char* LockKindName(LockKind kind) {
  switch (kind) {
    case LockKind::kSpin35us:
      return "spin-35us";
    case LockKind::kSpin2ms:
      return "spin-2ms";
    case LockKind::kMcs:
      return "mcs";
    case LockKind::kMcsH1:
      return "h1-mcs";
    case LockKind::kMcsH2:
      return "h2-mcs";
    case LockKind::kCna:
      return "cna";
    case LockKind::kHmcsT:
      return "hmcs-t";
    case LockKind::kFissile:
      return "fissile";
    case LockKind::kDrw:
      return "drwlock";
  }
  return "?";
}

}  // namespace hsim
