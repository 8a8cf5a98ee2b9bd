#include "textconv/swar.hpp"

#include <cstdlib>

namespace bsoap::textconv {

namespace detail {

std::atomic<std::uint8_t> g_textconv_tier_plus1{0};

TextconvTier init_textconv_tier() noexcept {
  const char* force = std::getenv("BSOAP_FORCE_SCALAR_TEXTCONV");
  TextconvTier tier;
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    tier = TextconvTier::kScalar;
  } else {
    tier = detect_textconv_tier();
  }
  // Racing first queries compute the same value; the store is idempotent.
  g_textconv_tier_plus1.store(static_cast<std::uint8_t>(tier) + 1,
                              std::memory_order_relaxed);
  return tier;
}

}  // namespace detail

TextconvTier detect_textconv_tier() noexcept {
  // The SWAR kernels are plain 64-bit integer code: valid everywhere.
  return TextconvTier::kSwar;
}

void set_textconv_tier(TextconvTier tier) noexcept {
  detail::g_textconv_tier_plus1.store(static_cast<std::uint8_t>(tier) + 1,
                                      std::memory_order_relaxed);
}

}  // namespace bsoap::textconv
