#include "field/fp.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"

namespace medcrypt::field {

PrimeField::PrimeField(BigInt p)
    : mont_(std::move(p)), byte_size_((mont_.modulus().bit_length() + 7) / 8) {
  // Exponents Fp recomputed per call before this cache existed.
  const BigInt& m = mont_.modulus();
  legendre_exp_ = (m - BigInt(1)) >> 1;
  if (m.bit(0) && m.bit(1)) sqrt_exp_ = (m + BigInt(1)) >> 2;  // p ≡ 3 (mod 4)
}

const PrimeField* PrimeField::make(BigInt p) {
  // Leaked like the metrics registry: values hold raw pointers into it
  // and may be used during static teardown. Never erased, so one modulus
  // always maps to one context.
  static auto* mu = new std::mutex;
  static auto* table =
      new std::map<BigInt, std::unique_ptr<const PrimeField>>;
  const std::lock_guard lock(*mu);
  auto it = table->find(p);
  if (it == table->end()) {
    // The constructor validates (Montgomery rejects an even modulus)
    // before anything is inserted.
    std::unique_ptr<const PrimeField> field(new PrimeField(p));
    it = table->emplace(std::move(p), std::move(field)).first;
  }
  return it->second.get();
}

Fp PrimeField::zero() const {
  return Fp(this, LimbStore(mont_.limbs()));
}

Fp PrimeField::one() const {
  LimbStore s(mont_.limbs());
  std::copy_n(mont_.one_limbs(), mont_.limbs(), s.data());
  return Fp(this, std::move(s));
}

Fp PrimeField::from_bigint(const BigInt& v) const {
  LimbStore s(mont_.limbs());
  mont_.to_mont_limbs(v.mod(modulus()), s.data());
  return Fp(this, std::move(s));
}

Fp PrimeField::from_u64(std::uint64_t v) const {
  return from_bigint(BigInt(v));
}

Fp PrimeField::from_bytes(BytesView bytes) const {
  if (bytes.size() != byte_size_) {
    throw InvalidArgument("PrimeField::from_bytes: wrong length");
  }
  const BigInt v = BigInt::from_bytes_be(bytes);
  if (v >= modulus()) {
    throw InvalidArgument("PrimeField::from_bytes: value >= modulus");
  }
  LimbStore s(mont_.limbs());
  mont_.to_mont_limbs(v, s.data());
  return Fp(this, std::move(s));
}

Fp PrimeField::random(RandomSource& rng) const {
  LimbStore s(mont_.limbs());
  mont_.to_mont_limbs(BigInt::random_below(rng, modulus()), s.data());
  return Fp(this, std::move(s));
}

bool Fp::is_one() const {
  if (!field_ || store_.empty()) return false;
  const std::uint64_t* a = store_.data();
  const std::uint64_t* one = field_->mont().one_limbs();
  for (std::size_t i = 0; i < store_.size(); ++i) {
    if (a[i] != one[i]) return false;
  }
  return true;
}

void Fp::check_bound(const char* op) const {
  if (!field_) {
    throw InvalidArgument(std::string("Fp: ") + op +
                          " on default-constructed element");
  }
}

void Fp::check_same_field(const Fp& o) const {
  if (!field_ || !o.field_) {
    throw InvalidArgument("Fp: operation on default-constructed element");
  }
  if (field_ != o.field_) {
    throw InvalidArgument("Fp: mixed-field operation");
  }
}

Fp& Fp::operator+=(const Fp& o) {
  check_same_field(o);
  field_->mont().add_limbs(store_.data(), o.store_.data(), store_.data());
  return *this;
}

Fp& Fp::operator-=(const Fp& o) {
  check_same_field(o);
  field_->mont().sub_limbs(store_.data(), o.store_.data(), store_.data());
  return *this;
}

Fp& Fp::operator*=(const Fp& o) {
  check_same_field(o);
  field_->mont().mul_limbs(store_.data(), o.store_.data(), store_.data());
  return *this;
}

Fp Fp::operator+(const Fp& o) const {
  Fp r = *this;
  r += o;
  return r;
}

Fp Fp::operator-(const Fp& o) const {
  Fp r = *this;
  r -= o;
  return r;
}

Fp Fp::operator*(const Fp& o) const {
  Fp r = *this;
  r *= o;
  return r;
}

void Fp::assign_limbs(const std::uint64_t* limbs) {
  check_bound("assign_limbs");
  std::copy_n(limbs, store_.size(), store_.data());
}

void Fp::negate_inplace() {
  check_bound("negate");
  field_->mont().neg_limbs(store_.data(), store_.data());
}

void Fp::cswap(Fp& o, std::uint64_t swap) {
  check_same_field(o);
  store_.cswap(o.store_, std::uint64_t{0} - swap);
}

Fp Fp::operator-() const {
  Fp r = *this;
  r.negate_inplace();
  return r;
}

void Fp::square_inplace() {
  check_bound("square");
  field_->mont().mul_limbs(store_.data(), store_.data(), store_.data());
}

Fp Fp::square() const {
  Fp r = *this;
  r.square_inplace();
  return r;
}

void Fp::dbl_inplace() {
  check_bound("double");
  field_->mont().add_limbs(store_.data(), store_.data(), store_.data());
}

Fp Fp::dbl() const {
  Fp r = *this;
  r.dbl_inplace();
  return r;
}

bool Fp::operator==(const Fp& o) const {
  if (!field_ || !o.field_) return !field_ && !o.field_;
  return field_ == o.field_ && store_.equals(o.store_);
}

Fp Fp::inverse() const {
  check_bound("inverse");
  if (is_zero()) throw InvalidArgument("Fp: inverse of zero");
  Fp r = *this;
  field_->mont().inv_limbs(r.store_.data(), r.store_.data());
  return r;
}

Fp Fp::pow(const BigInt& e) const {
  check_bound("pow");
  Fp r = *this;
  field_->mont().pow_limbs(store_.data(), e, r.store_.data());
  return r;
}

bool Fp::is_square() const {
  if (is_zero()) return true;
  return pow(field_->legendre_exponent()).is_one();
}

int Fp::legendre() const {
  check_bound("legendre");
  if (const std::optional<int> symbol =
          field_->mont().jacobi_limbs(store_.data())) {
    return *symbol;
  }
  return is_square() ? 1 : -1;  // nonzero: jacobi_limbs settles zero
}

Fp Fp::sqrt() const {
  std::optional<Fp> root = try_sqrt();
  if (!root) throw InvalidArgument("Fp: sqrt of non-square");
  return std::move(*root);
}

std::optional<Fp> Fp::try_sqrt() const {
  check_bound("sqrt");
  if (field_->sqrt_exponent().is_zero()) {
    throw InvalidArgument("Fp: sqrt needs p = 3 (mod 4)");
  }
  if (is_zero()) return *this;
  Fp s = pow(field_->sqrt_exponent());
  if (!(s.square() == *this)) return std::nullopt;
  return s;
}

BigInt Fp::to_bigint() const {
  check_bound("to_bigint");
  return field_->mont().from_mont_limbs(store_.data());
}

Bytes Fp::to_bytes() const {
  return to_bigint().to_bytes_be_padded(field_->byte_size());
}

void batch_inverse(std::span<Fp> xs) {
  if (xs.empty()) return;
  const PrimeField* field = xs[0].field();
  for (const Fp& e : xs) {
    if (!e.field() || e.field() != field) {
      throw InvalidArgument("batch_inverse: elements of different fields");
    }
  }
  const bigint::Montgomery& mont = field->mont();
  const std::size_t k = mont.limbs();
  const std::uint64_t* one = mont.one_limbs();
  // Limb-level throughout: prefix i (at i·k) is the product
  // x_0 ⋯ x_{i-1}, then the running product, and a scratch factor. A zero
  // x_i enters the products as one, picked by a mask, not a branch.
  std::vector<std::uint64_t> buf((xs.size() + 2) * k);
  std::uint64_t* acc = buf.data() + xs.size() * k;
  std::uint64_t* x = acc + k;
  const auto load = [&](const Fp& e) {
    const std::uint64_t zero_mask = std::uint64_t{0} - e.is_zero();
    const std::uint64_t* l = e.limbs();
    for (std::size_t j = 0; j < k; ++j) {
      x[j] = l[j] ^ ((l[j] ^ one[j]) & zero_mask);
    }
    return zero_mask;
  };
  std::copy_n(one, k, acc);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::copy_n(acc, k, buf.data() + i * k);
    load(xs[i]);
    mont.mul_limbs(acc, x, acc);
  }
  mont.inv_limbs(acc, acc);  // 1/(x_0 ⋯ x_{n-1}); never zero
  for (std::size_t i = xs.size(); i-- > 0;) {
    const std::uint64_t zero_mask = load(xs[i]);
    std::uint64_t* inv_i = buf.data() + i * k;
    mont.mul_limbs(inv_i, acc, inv_i);  // 1/x_i
    mont.mul_limbs(acc, x, acc);        // drop x_i from the tail
    for (std::size_t j = 0; j < k; ++j) inv_i[j] &= ~zero_mask;
    xs[i].assign_limbs(inv_i);
  }
}

}  // namespace medcrypt::field
