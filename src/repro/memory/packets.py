"""Package formats exchanged between the host GPU and the memory system.

The paper's evaluation methodology (section VI) pins down the costs that
decide the designs' fates:

* an *offloading package* (a texture request sent into the HMC) is 4x the
  size of a normal memory read-request package, because it carries texture
  coordinates, request IDs, shader IDs and camera angles;
* a TFIM *response package* is the size of a normal read-response package.

These constants are first-class here so that every design pays exactly the
same, auditable costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import Bytes


@dataclass(frozen=True)
class PacketSpec:
    """Byte sizes of each package kind for a given cache-line size.

    Sizes follow the paper's methodology: a read request is a small header
    package; a read response carries one cache line plus a header; the
    S-TFIM texture request package is ``texture_request_scale`` (default 4)
    times the read request; the A-TFIM parent-texel package is likewise a
    4x offloading package but the Offloading Unit's hash-table compression
    packs several parent texels of one fetch into one package.
    """

    cache_line_bytes: Bytes = Bytes(64)
    header_bytes: Bytes = Bytes(16)
    texture_request_scale: int = 4
    texel_bytes: Bytes = Bytes(4)  # RGBA8

    def __post_init__(self) -> None:
        if self.cache_line_bytes <= 0:
            raise ValueError("cache line size must be positive")
        if self.header_bytes <= 0:
            raise ValueError("header size must be positive")
        if self.texture_request_scale <= 0:
            raise ValueError("texture request scale must be positive")
        if self.texel_bytes <= 0:
            raise ValueError("texel size must be positive")

    @property
    def read_request_bytes(self) -> Bytes:
        """A normal memory read request: header only."""
        return self.header_bytes

    @property
    def read_response_bytes(self) -> Bytes:
        """A normal read response: one cache line plus header."""
        return self.cache_line_bytes + self.header_bytes

    @property
    def write_request_bytes(self) -> Bytes:
        """A write: one cache line plus header."""
        return self.cache_line_bytes + self.header_bytes

    @property
    def texture_request_bytes(self) -> Bytes:
        """S-TFIM live-texture request package (4x a read request)."""
        return self.texture_request_scale * self.read_request_bytes

    def texture_response_bytes(self, samples: int = 1) -> Bytes:
        """S-TFIM response: filtered RGBA samples plus header.

        The paper sizes one response package equal to a read response; a
        request for a fragment quad carries a handful of samples, which
        still fits one package, so we charge one read-response package per
        ``ceil(samples * texel_bytes / cache_line_bytes)`` lines.
        """
        if samples <= 0:
            raise ValueError("sample count must be positive")
        payload = samples * self.texel_bytes
        lines = -(-payload // self.cache_line_bytes)  # ceil division
        return lines * self.cache_line_bytes + self.header_bytes

    @property
    def parent_texel_request_bytes(self) -> Bytes:
        """A-TFIM offloading package: 4x a read request (section VI)."""
        return self.texture_request_scale * self.read_request_bytes

    def parent_texel_response_bytes(self, parent_texels: int) -> Bytes:
        """A-TFIM response, formatted like a normal bilinear fetch result.

        The Combination Unit's composing stage groups the requested parent
        texels so the output package has the same format as a normal read
        response (section V-D).
        """
        if parent_texels <= 0:
            raise ValueError("parent texel count must be positive")
        payload = parent_texels * self.texel_bytes
        lines = -(-payload // self.cache_line_bytes)
        return lines * self.cache_line_bytes + self.header_bytes

    def texels_per_line(self) -> int:
        """How many texels one cache line holds (16 for RGBA8 / 64 B)."""
        return self.cache_line_bytes // self.texel_bytes
