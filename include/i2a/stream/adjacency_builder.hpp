#pragma once
/// \file stream/adjacency_builder.hpp
/// \brief The unsharded streaming builder: `ShardedBuilder` fixed at one
///        shard. Same ingest / snapshot / durability / recovery contract
///        (stream/sharded_builder.hpp), same on-disk bytes — a directory
///        one writes, the other recovers.

#include <utility>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "stream/sharded_builder.hpp"

namespace i2a::stream {

/// Maintains A over a batched edge stream in one ladder. With a single
/// shard nothing is routed: each batch is staged straight from the
/// caller's span.
template <typename P>
  requires algebra::Semiring<P>
class AdjacencyBuilder : public ShardedBuilder<P> {
 public:
  explicit AdjacencyBuilder(index_t num_vertices, P p = P{},
                            const Options& opts = {})
      : ShardedBuilder<P>(num_vertices, 1, std::move(p), opts) {}

  /// `ShardedBuilder::recover` at one shard.
  static AdjacencyBuilder recover(index_t num_vertices, P p,
                                  const Options& opts) {
    return AdjacencyBuilder(
        ShardedBuilder<P>::recover(num_vertices, 1, std::move(p), opts));
  }

 private:
  explicit AdjacencyBuilder(ShardedBuilder<P>&& b) noexcept
      : ShardedBuilder<P>(std::move(b)) {}
};

}  // namespace i2a::stream
