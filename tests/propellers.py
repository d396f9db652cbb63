"""The propeller the tests draw scenes with: a 2-blade rotor at the
centre of a 120 x 120 sensor, its speed and shape overridable."""

from rotorsense.sim import ConstantSpeed, PropellerSpec

CENTER = (60.0, 60.0)


def make_spec(rpm=3000.0, center=CENTER, blade_length=30.0, blade_width=5.0, phase=0.3, spin=1):
    return PropellerSpec(
        center=center,
        n_blades=2,
        blade_length=blade_length,
        blade_width=blade_width,
        initial_phase=phase,
        speed_profile=ConstantSpeed(rpm),
        spin=spin,
    )
