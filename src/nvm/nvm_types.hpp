// NVM media taxonomy: the four cell technologies studied by the paper
// (Table 1) and the operations an NVM transaction can perform.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace nvmooc {

enum class NvmType : std::uint8_t { kSlc = 0, kMlc = 1, kTlc = 2, kPcm = 3 };

inline constexpr std::array<NvmType, 4> kAllNvmTypes = {
    NvmType::kSlc, NvmType::kMlc, NvmType::kTlc, NvmType::kPcm};

std::string_view to_string(NvmType type);

enum class NvmOp : std::uint8_t { kRead = 0, kWrite = 1, kErase = 2 };

}  // namespace nvmooc
