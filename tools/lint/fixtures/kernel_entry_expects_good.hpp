// Clean twin for rule `kernel-entry-expects`: the kernels open with
// I2A_EXPECTS, a forwarding overload carries the documented allow
// marker, and *calls* to kernel-named functions are not declarations.
#pragma once

#define I2A_EXPECTS(cond, msg) static_cast<void>(0)

inline int spgemm(int n) {
  I2A_EXPECTS(n >= 0, "spgemm: negative dimension");
  return n * 2;
}

inline int transpose(int n) {
  I2A_EXPECTS(n >= 0, "transpose: negative dimension");
  return n;
}

// i2a-lint: allow(kernel-entry-expects): forwarding overload — the
// contract is checked by the kernel it immediately calls.
template <typename T>
int spgemm(const T& shaped) {
  return spgemm(shaped.n);
}

inline int use_kernels(int n) {
  return spgemm(n) + transpose(n);
}
