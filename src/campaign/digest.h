// Content digests for the campaign cache.
//
// A scenario point's result file is addressed by a digest of everything
// that determines its bytes: the spec's result-relevant fields
// (ScenarioSpec::result_scope), the point's own key within the grid, and a
// code-version salt. The salt is the cache-invalidation lever: any change
// that alters computed numbers (model math, RNG streams, trial engine,
// CSV formatting) must bump kCodeVersionSalt, which orphans every cached
// object at once; grid edits, by contrast, keep untouched points warm.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sos::campaign {

/// Bump whenever a code change alters any computed result byte at a fixed
/// spec (model math, simulation RNG streams, number formatting) or the
/// on-disk object container format. Stale objects are then simply never
/// matched again; `sos_campaign clean` reclaims the space.
/// v2: objects gained the validated length+sentinel container.
/// v3: the container carries an fnv1a64 payload checksum (store integrity).
/// v4: auto-trial sweep rows dropped the mc_ess column (importance sampling
///     was deleted).
inline constexpr std::string_view kCodeVersionSalt = "sos-campaign-v4";

/// FNV-1a 64-bit over the bytes of `data`.
std::uint64_t fnv1a64(std::string_view data) noexcept;

/// 16-char lowercase hex rendering.
std::string to_hex16(std::uint64_t value);

/// Digest of arbitrary content under the code-version salt.
std::string salted_digest(std::string_view content);

}  // namespace sos::campaign
