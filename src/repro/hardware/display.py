"""ST7735-style status display model.

The baseboard carries a small SPI TFT that shows total power prominently
plus per-pair voltage/current/power in smaller fonts whenever the host is
not streaming (paper, Section III-B2).  The paper's firmware accelerates
this with (1) DMA transfers of the framebuffer and (2) pre-computed glyph
bitmaps for every character/size/colour combination used.  Both are
modelled here: glyph rendering rasterises from a pre-computed cache, and a
DMA accounting model tracks bytes pushed over SPI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A compact 5x7 font covering the characters the power screen needs.
# Each glyph is 5 column bytes, LSB = top row (classic ST7735 layout).
_FONT_5X7: dict[str, tuple[int, int, int, int, int]] = {
    "0": (0x3E, 0x51, 0x49, 0x45, 0x3E),
    "1": (0x00, 0x42, 0x7F, 0x40, 0x00),
    "2": (0x42, 0x61, 0x51, 0x49, 0x46),
    "3": (0x21, 0x41, 0x45, 0x4B, 0x31),
    "4": (0x18, 0x14, 0x12, 0x7F, 0x10),
    "5": (0x27, 0x45, 0x45, 0x45, 0x39),
    "6": (0x3C, 0x4A, 0x49, 0x49, 0x30),
    "7": (0x01, 0x71, 0x09, 0x05, 0x03),
    "8": (0x36, 0x49, 0x49, 0x49, 0x36),
    "9": (0x06, 0x49, 0x49, 0x29, 0x1E),
    ".": (0x00, 0x60, 0x60, 0x00, 0x00),
    "-": (0x08, 0x08, 0x08, 0x08, 0x08),
    " ": (0x00, 0x00, 0x00, 0x00, 0x00),
    "W": (0x3F, 0x40, 0x38, 0x40, 0x3F),
    "V": (0x1F, 0x20, 0x40, 0x20, 0x1F),
    "A": (0x7E, 0x11, 0x11, 0x11, 0x7E),
    "m": (0x7C, 0x04, 0x18, 0x04, 0x78),
    "k": (0x7F, 0x10, 0x28, 0x44, 0x00),
    ":": (0x00, 0x36, 0x36, 0x00, 0x00),
    "/": (0x20, 0x10, 0x08, 0x04, 0x02),
}

GLYPH_W = 5
GLYPH_H = 7


@dataclass(frozen=True)
class _GlyphKey:
    char: str
    scale: int
    color: int


@dataclass
class DisplayStats:
    """Accounting of rendering work, mirroring the firmware optimisations."""

    frames_rendered: int = 0
    glyphs_drawn: int = 0
    glyph_cache_misses: int = 0
    dma_bytes: int = 0


class Display:
    """A tiny framebuffer display with a pre-computed glyph cache."""

    def __init__(self, width: int = 160, height: int = 80) -> None:
        self.width = width
        self.height = height
        self.framebuffer = np.zeros((height, width), dtype=np.uint16)
        self._glyph_cache: dict[_GlyphKey, np.ndarray] = {}
        self.stats = DisplayStats()

    def precompute_fonts(self, scales=(1, 2, 3), colors=(0xFFFF, 0x07E0)) -> int:
        """Pre-rasterise all glyphs for the given sizes and colours.

        Mirrors the paper's font pre-computation script; returns the number
        of cached glyphs.
        """
        for char in _FONT_5X7:
            for scale in scales:
                for color in colors:
                    self._glyph(char, scale, color)
        return len(self._glyph_cache)

    def _glyph(self, char: str, scale: int, color: int) -> np.ndarray:
        key = _GlyphKey(char, scale, color)
        cached = self._glyph_cache.get(key)
        if cached is not None:
            return cached
        self.stats.glyph_cache_misses += 1
        columns = np.array(_FONT_5X7.get(char, _FONT_5X7[" "]))
        # Row y of the bitmap is bit y of every column byte.
        bitmap = (columns >> np.arange(GLYPH_H)[:, None]) & 1
        bitmap = bitmap.repeat(scale, axis=0).repeat(scale, axis=1)
        glyph = (bitmap * color).astype(np.uint16)
        self._glyph_cache[key] = glyph
        return glyph

    def draw_text(
        self, x: int, y: int, text: str, scale: int = 1, color: int = 0xFFFF
    ) -> None:
        """Draw text at pixel position; clipped at the framebuffer edges."""
        cursor = x
        for char in text:
            glyph = self._glyph(char, scale, color)
            h, w = glyph.shape
            x0, y0 = cursor, y
            x1 = min(x0 + w, self.width)
            y1 = min(y0 + h, self.height)
            if x0 < self.width and y0 < self.height:
                region = glyph[: y1 - y0, : x1 - x0]
                target = self.framebuffer[y0:y1, x0:x1]
                target[region != 0] = region[region != 0]
                self.stats.glyphs_drawn += 1
            cursor += w + scale  # one scaled column of spacing

    def clear(self) -> None:
        self.framebuffer[:] = 0

    def render_power_screen(
        self, total_watts: float, pairs: list[tuple[str, float, float]]
    ) -> None:
        """Render total power big plus per-pair volts/amps/watts rows.

        Args:
            total_watts: total across enabled pairs.
            pairs: (name, volts, amps) per enabled pair.
        """
        self.clear()
        self.draw_text(4, 4, f"{total_watts:7.2f}W", scale=3, color=0xFFFF)
        y = 4 + GLYPH_H * 3 + 6
        for name, volts, amps in pairs:
            line = f"{volts:5.2f}V {amps:6.3f}A {volts * amps:7.2f}W"
            self.draw_text(4, y, line, scale=1, color=0x07E0)
            y += GLYPH_H + 2
        self.stats.frames_rendered += 1
        self.flush()

    def flush(self) -> None:
        """Model the DMA transfer of the framebuffer to the panel."""
        self.stats.dma_bytes += self.framebuffer.nbytes
