#include "src/sfi/exec_engine.h"

namespace vino {

std::string_view ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kTier0:
      return "tier0";
    case ExecTier::kTier1:
      return "tier1";
  }
  return "?";
}

}  // namespace vino
