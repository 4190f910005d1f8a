"""Quaternion arithmetic and slice coordinates.

Every quaternion q = x0 + x1 i + x2 j + x3 k splits as x + y*u where u is
a unit imaginary direction: q lives on the complex "slice" spanned by 1
and u.  This script walks through the arithmetic, the slice coordinates,
and the orthogonal companion unit used to split functions later on.
"""

from slicefock import I, J, K, Quaternion, orthogonal_unit, slice_coords
from slicefock.quaternions import slice_frame, to_frame

# The defining relations: i j = k and friends, anticommuting.
print("i*j =", (I * J).to_text())
print("j*i =", (J * I).to_text())
print("j*k =", (J * K).to_text())
print("i*i =", (I * I).to_text())

q = Quaternion(1.0, 2.0, -1.0, 0.5)
w = Quaternion(0.3, -0.7, 0.2, 1.1)
print("\n|q w| - |q||w| =", abs(q * w) - abs(q) * abs(w))        # multiplicative norm
print("conj(q) q =", (q.conjugate() * q).to_text(), "= |q|^2 =", q.norm_sq)
print("q * q^-1 =", (q * q.inverse()).to_text())

# Slice coordinates: x + y*axis with y >= 0.
x, y, u = slice_coords(q)
print("\nq =", q.to_text())
print("x =", x, " y =", y, " axis =", u.to_text())
print("axis^2 =", (u * u).to_text())
print("reassembled:", slice_coords(q).reassemble().to_text())

# Real values have no imaginary direction; the canonical unit i is used.
# Any nonzero imaginary part, however small, keeps its own direction.
print("axis of 5 =", slice_coords(Quaternion.real(5.0)).axis.to_text())
print("axis of 3 + 1e-13 j =", slice_coords(Quaternion(3.0, 0.0, 1e-13, 0.0)).axis.to_text())

# A deterministic companion unit orthogonal to the axis.  Together with
# their product, (1, u, v, uv) is an orthonormal basis of the quaternions.
v = orthogonal_unit(u)
print("\ncompanion v =", v.to_text())
print("u v + v u =", (u * v + v * u).to_text())

# Any value decomposes into two complex numbers over that basis, the
# slice frame of u.
z, s = to_frame(q.as_array(), slice_frame(u))
print("q = %s + %s * v  in the slice of u" % (z, s))

# With the canonical frame (1, i, j, k) the decomposition is just a relabeling:
z, s = to_frame(Quaternion(1, 1, 1, 1).as_array(), slice_frame(I))
print("\n1+i+j+k over (1, i, j, k):", complex(z), complex(s))
