// The §3.2 robustness NIZK: a proof of "equality of two preimages of the
// isomorphism induced by the pairing".
//
// Player i proves that his decryption share S = ê(U, d_IDi) uses the same
// d_IDi that underlies his verification key P_pub^(i), i.e. that
//   (ê(P, ·), ê(U, ·)) evaluated at d_IDi
// yields (Y1, S) with Y1 = ê(P_pub^(i), Q_ID), without revealing d_IDi:
//
//   commit   R = k·d_IDi for random k, w1 = ê(P, R), w2 = ê(U, R)
//   challenge e = H(S, Y1, w1, w2, U)                    (Fiat–Shamir)
//   response V = R + e·d_IDi ∈ G1
//
//   verify   S, w1, w2 ∈ G_T (x ≠ 0, x^q = 1)
//            ê(P, V) = w1 · Y1^e
//            ê(U, V) = w2 · S^e
//
// The paper asks only for a uniform R in G1. For d_IDi ≠ O and k uniform
// in [1, q), k·d_IDi is uniform on G1 \ {O}, as k·P is; d_IDi = O means
// f(i) ≡ 0 (probability 1/q), and then P_pub^(i) = O says so publicly.
// With R a multiple of d_IDi the prover never forms R: w1 = Y1^k,
// w2 = S^k and V = (k + e)·d_IDi. Per proof that is one raw pairing (S,
// which an unproved share computes the same way), two constant-time
// G_T ladders (field::pow_unitary) and one point ladder, with no
// prepared program. Y1 is fixed by the key share, which carries it
// (KeyShare::y1); a wrong stored Y1 yields a proof that fails.
//
// The verifier folds a whole batch of n statements into one pairing
// (small-exponent randomized batching, Bellare–Garay–Rabin '98): with
// nonzero 80-bit weights ρ_1..ρ_n and c hashed from the batch,
//
//   ê(P + c·U, Σ ρ_i·V_i) = Π (w1_i · Y1_i^e_i)^ρ_i · (Π (w2_i · S_i^e_i)^ρ_i)^c
//
// Both G1 sides are public sums of short multiples (ec::multi_mul), the
// right-hand side one multi-exponentiation (field::multi_pow). A batch
// holding any false statement passes with probability at most 2·2^-80
// per attempt, provided every value lies in the prime-order G_T
// (Boyd–Pavlovski '00) — hence the membership checks, which
// check_statement runs once per statement before any batch.
// docs/PERF.md §6 has the derivation and the cost.
#pragma once

#include <cstdint>
#include <span>

#include "ec/point.h"
#include "field/fp2.h"
#include "pairing/param_gen.h"

namespace medcrypt::threshold {

/// Non-interactive proof attached to a decryption share.
struct ShareProof {
  field::Fp2 w1;
  field::Fp2 w2;
  bigint::BigInt e;
  ec::Point v;
};

/// A decryption share value S = ê(U, d_idi) with its proof.
struct ProvedShare {
  field::Fp2 value;
  ShareProof proof;
};

/// One statement for the batch verifier. `vk_pairing` is the verifier's
/// own Y1 = ê(P_pub^(i), Q_ID); `index` only enters the weight hash.
struct ShareStatement {
  std::uint32_t index = 0;
  const field::Fp2* value = nullptr;
  const field::Fp2* vk_pairing = nullptr;
  const ShareProof* proof = nullptr;
};

/// Computes the share value ê(U, d_idi) and its proof; `y1` is the key
/// share's ê(P, d_idi) (KeyShare::y1).
ProvedShare prove_share(const pairing::ParamSet& group, const ec::Point& u,
                        const ec::Point& d_idi, const field::Fp2& y1,
                        RandomSource& rng);

/// The per-statement checks: the challenge matches its Fiat–Shamir hash
/// and S, w1, w2 lie in G_T.
bool check_statement(const pairing::ParamSet& group, const ec::Point& u,
                     const ShareStatement& statement);

/// The weighted combined check above over statements that each passed
/// check_statement (without that, it is not sound). Empty batches are
/// vacuously true.
bool check_batch_equation(const pairing::ParamSet& group, const ec::Point& u,
                          std::span<const ShareStatement> batch);

/// True iff every statement in `batch` holds: check_statement on each,
/// then check_batch_equation on all. Empty batches are vacuously true.
bool verify_share_batch(const pairing::ParamSet& group, const ec::Point& u,
                        std::span<const ShareStatement> batch);

/// verify_share_batch over the single statement (S, Y1, proof).
bool verify_share_proof(const pairing::ParamSet& group, const ec::Point& u,
                        const field::Fp2& share_value,
                        const field::Fp2& vk_pairing,
                        const ShareProof& proof);

}  // namespace medcrypt::threshold
