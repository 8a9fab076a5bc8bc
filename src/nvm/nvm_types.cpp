#include "nvm/nvm_types.hpp"

namespace nvmooc {

std::string_view to_string(NvmType type) {
  switch (type) {
    case NvmType::kSlc: return "SLC";
    case NvmType::kMlc: return "MLC";
    case NvmType::kTlc: return "TLC";
    case NvmType::kPcm: return "PCM";
  }
  return "?";
}

}  // namespace nvmooc
