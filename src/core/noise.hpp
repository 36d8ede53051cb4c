// Query-noise models (robustness extension).
//
// The paper assumes exact counts; real measurement channels (qPCR
// quantification, GPU count estimates) are noisy. This module perturbs
// result vectors so the robustness ablation can measure how gracefully
// the MN threshold degrades -- the thresholding decoder only needs the
// score gap of Corollary 6 to survive the perturbation.
//
// `NoiseModel` is the first-class spec of such a perturbation: a decode
// job carries one (engine/batch_engine), the protocol serializes it
// (`noise sym 0.05 7`), and the CLI parses the compact colon form
// (`sym:0.05:7`). Noise is a *decode option*, not an instance property:
// the archived observables stay clean and the engine perturbs a copy of
// y right before decoding, so the same instance can be decoded noisily
// and noiselessly side by side (the result cache keys on the model).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace pooled {

/// With probability `rate` per query, shifts the result by +1 or -1
/// (fair sign; clamped at 0). Deterministic in `seed`.
void add_symmetric_noise(std::vector<std::uint32_t>& results, double rate,
                         std::uint64_t seed);

/// Adds discrete rounded Gaussian noise of standard deviation `sigma` to
/// every result (clamped at 0). Deterministic in `seed`.
void add_gaussian_noise(std::vector<std::uint32_t>& results, double sigma,
                        std::uint64_t seed);

enum class NoiseKind : std::uint8_t {
  None,       ///< exact counts (the paper's model)
  Symmetric,  ///< per-query +-1 with probability `level`
  Gaussian,   ///< rounded N(0, level^2) added to every query
};

/// Declarative noise spec: what perturbation to apply to a result vector
/// before decoding, deterministically in `seed`.
struct NoiseModel {
  NoiseKind kind = NoiseKind::None;
  double level = 0.0;  ///< Symmetric: perturbation rate; Gaussian: sigma
  std::uint64_t seed = 0;

  /// True when applying the model can change a result vector.
  [[nodiscard]] bool enabled() const {
    return kind != NoiseKind::None && level > 0.0;
  }

  static NoiseModel symmetric(double rate, std::uint64_t seed = 0) {
    return NoiseModel{NoiseKind::Symmetric, rate, seed};
  }
  static NoiseModel gaussian(double sigma, std::uint64_t seed = 0) {
    return NoiseModel{NoiseKind::Gaussian, sigma, seed};
  }

  /// Compact canonical form: "none", "sym:<level>:<seed>",
  /// "gauss:<level>:<seed>". Disabled models (kind None, or level 0)
  /// always format as "none", so equivalent decodes key identically in
  /// the result cache. Stable across processes (cache keys embed it).
  [[nodiscard]] std::string to_string() const;

  /// Wire identifier of the kind: "none", "sym", "gauss".
  [[nodiscard]] std::string kind_name() const;

  /// Validated construction from wire tokens (the protocol's
  /// `noise <kind> <level> <seed>`). Throws ContractError on unknown
  /// kinds and on non-finite or out-of-range levels.
  static NoiseModel make(const std::string& kind_name, double level,
                         std::uint64_t seed);

  /// Parses the compact form; the ":<seed>" suffix is optional (0).
  /// Throws ContractError on malformed text.
  static NoiseModel parse(const std::string& text);

  bool operator==(const NoiseModel& other) const = default;
};

/// Applies the model to a result vector. On one-bit channels the noisy
/// vector stays well-formed (0/1): symmetric noise becomes a genuine
/// bit-flip channel at the model's rate, and Gaussian noise perturbs the
/// count and re-collapses it through the channel.
void apply_noise(std::vector<std::uint32_t>& results, const NoiseModel& model,
                 ChannelKind channel = ChannelKind::Quantitative);

/// Instance with `model` applied to its results, on the same design and
/// channel; returns the input unchanged (no copy) when the model is
/// disabled.
std::shared_ptr<const StreamedInstance> with_noise(
    std::shared_ptr<const StreamedInstance> instance, const NoiseModel& model);

}  // namespace pooled
